package cluster

// RestoreLinkCap is the per-shard cap on parked restore links.
const RestoreLinkCap = restoreLinkCap

// IdleRestoreLinks reports how many restore links are parked per shard.
func (gw *Gateway) IdleRestoreLinks() map[string]int {
	gw.links.mu.Lock()
	defer gw.links.mu.Unlock()
	out := make(map[string]int, len(gw.links.idle))
	for id, idle := range gw.links.idle {
		out[id] = len(idle)
	}
	return out
}
