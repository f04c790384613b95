package cluster

// RestoreLinkCap is the per-shard cap on parked restore links.
const RestoreLinkCap = restoreLinkCap

// IdleRestoreLinks reports how many restore links are parked per shard.
func (gw *Gateway) IdleRestoreLinks() map[string]int {
	out := make(map[string]int)
	for key, n := range gw.links.Idle() {
		out[key.Peer] += n
	}
	return out
}
