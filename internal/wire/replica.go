// Replica/migrate plane payloads. These frames ride ModePeer connections
// between a cluster gateway and a shard during rebalance and replication
// repair: MigrateBegin/MigrateData/MigrateEnd stream a whole file into the
// target shard's engine (which re-chunks and dedups the byte stream itself,
// so no chunker-options handshake is needed on this interior link),
// FileStat batch-checks which files a shard holds, and FileDrop forgets a
// file that finished migrating off a drained shard.
//
// Every request grammar is versioned like RestoreRange: the shard rejects
// a version it does not speak instead of misparsing it, so the plane can
// grow fields without a flag day.
package wire

import "mhdedup/internal/hashutil"

// migrateVersion versions the MigrateBegin payload grammar.
const migrateVersion uint8 = 1

// fileDropVersion versions the FileDrop payload grammar.
const fileDropVersion uint8 = 1

// fileStatVersion versions the FileStat payload grammar.
const fileStatVersion uint8 = 1

// MigrateBegin starts one migrated-file ingest on a shard. Name is the
// full (already tenant-namespaced) store name — migration is an interior
// operation, so no tenant scoping is applied by the receiving shard.
type MigrateBegin struct {
	Name string
}

func (m *MigrateBegin) fields(c *codec) *codec {
	return c.version(migrateVersion, "MigrateBegin").str(&m.Name).refuse(m.Name == "", "MigrateBegin with empty name")
}

// Marshal encodes m as a TypeMigrateBegin payload.
func (m MigrateBegin) Marshal() []byte { return m.fields(m.fields(&codec{}).encoder()).buf }

// UnmarshalMigrateBegin decodes a TypeMigrateBegin payload.
func UnmarshalMigrateBegin(p []byte) (MigrateBegin, error) {
	var m MigrateBegin
	err := m.fields(decoder(p)).done()
	return m, err
}

// MigrateData carries one in-order run of the migrating file's bytes.
type MigrateData struct {
	Data []byte
}

func (d *MigrateData) fields(c *codec) *codec { return c.blob(&d.Data) }

// Marshal encodes d as a TypeMigrateData payload.
func (d MigrateData) Marshal() []byte { return d.fields(d.fields(&codec{}).encoder()).buf }

// UnmarshalMigrateData decodes a TypeMigrateData payload. The returned
// bytes alias the payload; callers that retain them must copy.
func UnmarshalMigrateData(p []byte) (MigrateData, error) {
	var d MigrateData
	err := d.fields(decoder(p)).done()
	return d, err
}

// MigrateEnd closes the migrated stream, declaring its whole-file size
// and SHA-1 so the receiving shard can refuse a short or corrupted copy
// before acknowledging it with MigrateOK.
type MigrateEnd struct {
	TotalBytes uint64
	Sum        hashutil.Sum
}

func (e *MigrateEnd) fields(c *codec) *codec { return c.u64(&e.TotalBytes).hash(&e.Sum) }

// Marshal encodes e as a TypeMigrateEnd payload.
func (e MigrateEnd) Marshal() []byte { return e.fields(e.fields(&codec{}).encoder()).buf }

// UnmarshalMigrateEnd decodes a TypeMigrateEnd payload.
func UnmarshalMigrateEnd(p []byte) (MigrateEnd, error) {
	var e MigrateEnd
	err := e.fields(decoder(p)).done()
	return e, err
}

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
