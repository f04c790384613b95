// Replica plane payloads. These frames ride ModePeer connections between a
// cluster gateway and a shard during rebalance: FileDrop forgets a file
// that finished migrating off a drained shard. Where files are is learned
// from the shards' listings, and the copy itself is an ordinary ingest
// session, so neither has frames of its own here.
//
// Every request grammar is versioned like RestoreRange: the shard rejects
// a version it does not speak instead of misparsing it, so the plane can
// grow fields without a flag day.
package wire

// fileDropVersion versions the FileDrop payload grammar.
const fileDropVersion uint8 = 1

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
