// Replica plane payloads. These frames ride ModePeer connections between a
// cluster gateway and a shard during rebalance and replication repair:
// FileStat batch-checks which files a shard holds, and FileDrop forgets a
// file that finished migrating off a drained shard. The copy itself is an
// ordinary ingest session, so it has no frames of its own here.
//
// Every request grammar is versioned like RestoreRange: the shard rejects
// a version it does not speak instead of misparsing it, so the plane can
// grow fields without a flag day.
package wire

// fileDropVersion versions the FileDrop payload grammar.
const fileDropVersion uint8 = 1

// fileStatVersion versions the FileStat payload grammar.
const fileStatVersion uint8 = 1

// FileDrop asks a shard to forget one (fully namespaced) file — the final
// step of migrating it off a drained shard. Dropping a file the shard
// does not have is answered with FileDropOK too (idempotent).
type FileDrop struct {
	Name string
}

func (d *FileDrop) fields(c *codec) *codec {
	return c.version(fileDropVersion, "FileDrop").str(&d.Name).refuse(d.Name == "", "FileDrop with empty name")
}

// Marshal encodes d as a TypeFileDrop payload.
func (d FileDrop) Marshal() []byte { return d.fields(d.fields(&codec{}).encoder()).buf }

// UnmarshalFileDrop decodes a TypeFileDrop payload.
func UnmarshalFileDrop(p []byte) (FileDrop, error) {
	var d FileDrop
	err := d.fields(decoder(p)).done()
	return d, err
}

// FileStat asks which of a batch of (fully namespaced) file names the
// shard holds; FileStatOK answers with a presence flag per name in order.
type FileStat struct {
	Names []string
}

func (s *FileStat) fields(c *codec) *codec {
	return c.version(fileStatVersion, "FileStat").strs(&s.Names, MaxStatNames)
}

// Marshal encodes s as a TypeFileStat payload.
func (s FileStat) Marshal() []byte { return s.fields(s.fields(&codec{}).encoder()).buf }

// UnmarshalFileStat decodes a TypeFileStat payload.
func UnmarshalFileStat(p []byte) (FileStat, error) {
	var s FileStat
	err := s.fields(decoder(p)).done()
	return s, err
}

// FileStatOK answers FileStat: Present[i] reports whether Names[i] exists
// on the shard.
type FileStatOK struct {
	Present []bool
}

func (s *FileStatOK) fields(c *codec) *codec { return c.bools(&s.Present) }

// Marshal encodes s as a TypeFileStatOK payload.
func (s FileStatOK) Marshal() []byte { return s.fields(s.fields(&codec{}).encoder()).buf }

// UnmarshalFileStatOK decodes a TypeFileStatOK payload.
func UnmarshalFileStatOK(p []byte) (FileStatOK, error) {
	var s FileStatOK
	err := s.fields(decoder(p)).done()
	return s, err
}
