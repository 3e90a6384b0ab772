package core

import (
	"sync"

	"mendel/internal/wire"
)

// hintStore is the coordinator's hinted-handoff queue (the Dynamo
// technique): when ingest cannot reach a replica, the runs of blocks and the
// sequence shards destined for it are parked here instead of being dropped,
// and the health monitor replays them when the node returns. A mid-ingest
// crash therefore loses zero blocks — the write set is preserved verbatim,
// just deferred.
type hintStore struct {
	mu   sync.Mutex
	runs map[string][]wire.Run
	seqs map[string]*wire.StoreSequences
}

func newHintStore() *hintStore {
	return &hintStore{
		runs: make(map[string][]wire.Run),
		seqs: make(map[string]*wire.StoreSequences),
	}
}

// runBlocks returns the number of blocks (keys) runs hold.
func runBlocks(runs []wire.Run) int {
	n := 0
	for _, r := range runs {
		n += len(r.Keys)
	}
	return n
}

// addRuns parks runs destined for addr.
func (h *hintStore) addRuns(addr string, runs []wire.Run) {
	if len(runs) == 0 {
		return
	}
	h.mu.Lock()
	h.runs[addr] = append(h.runs[addr], runs...)
	h.mu.Unlock()
}

// addSequences parks sequence shards destined for addr. Replayed shards
// overwrite by ID on the node, so duplicates across hints are harmless.
func (h *hintStore) addSequences(addr string, msg wire.StoreSequences) {
	if len(msg.IDs) == 0 {
		return
	}
	h.mu.Lock()
	q := h.seqs[addr]
	if q == nil {
		q = &wire.StoreSequences{}
		h.seqs[addr] = q
	}
	q.IDs = append(q.IDs, msg.IDs...)
	q.Names = append(q.Names, msg.Names...)
	q.Data = append(q.Data, msg.Data...)
	h.mu.Unlock()
}

// take removes and returns everything queued for addr. On a failed replay
// the caller must restore what it took.
func (h *hintStore) take(addr string) ([]wire.Run, *wire.StoreSequences) {
	h.mu.Lock()
	defer h.mu.Unlock()
	runs := h.runs[addr]
	seqs := h.seqs[addr]
	delete(h.runs, addr)
	delete(h.seqs, addr)
	return runs, seqs
}

// restore requeues hints a failed replay could not deliver.
func (h *hintStore) restore(addr string, runs []wire.Run, seqs *wire.StoreSequences) {
	h.mu.Lock()
	if len(runs) > 0 {
		h.runs[addr] = append(runs, h.runs[addr]...)
	}
	if seqs != nil && len(seqs.IDs) > 0 {
		if q := h.seqs[addr]; q != nil {
			seqs.IDs = append(seqs.IDs, q.IDs...)
			seqs.Names = append(seqs.Names, q.Names...)
			seqs.Data = append(seqs.Data, q.Data...)
		}
		h.seqs[addr] = seqs
	}
	h.mu.Unlock()
}

// pending returns the total number of parked items (blocks plus sequence
// shards), the value behind the hints_pending gauge.
func (h *hintStore) pending() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var n int64
	for _, r := range h.runs {
		n += int64(runBlocks(r))
	}
	for _, s := range h.seqs {
		n += int64(len(s.IDs))
	}
	return n
}

// pendingFor returns the number of items parked for one address.
func (h *hintStore) pendingFor(addr string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := runBlocks(h.runs[addr])
	if s := h.seqs[addr]; s != nil {
		n += len(s.IDs)
	}
	return n
}

// addrs returns every address with parked hints.
func (h *hintStore) addrs() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.runs)+len(h.seqs))
	seen := make(map[string]bool)
	for a := range h.runs {
		seen[a] = true
		out = append(out, a)
	}
	for a := range h.seqs {
		if !seen[a] {
			out = append(out, a)
		}
	}
	return out
}

// HintsPending reports the number of queued hinted-handoff items (blocks
// plus sequence shards) awaiting replay to recovered nodes.
func (c *Cluster) HintsPending() int64 { return c.hints.pending() }
