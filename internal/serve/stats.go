package serve

// Stats is a point-in-time snapshot of the daemon's counters, exposed as
// JSON by GET /v1/stats. It is the seed of the observability layer: every
// serving mechanism (cache, coalescing, admission, disk warmth) reports
// here, and the load-shaped tests assert on these numbers rather than on
// timing.
type Stats struct {
	// RankRequests / SearchRequests / BatchRequests count accepted
	// (parse-valid) requests per endpoint; BatchRequests are /v1/rank
	// calls that carried a subgraph batch.
	RankRequests   int64 `json:"rank_requests"`
	SearchRequests int64 `json:"search_requests"`
	BatchRequests  int64 `json:"batch_requests"`

	// ResultHits count subgraphs answered from a cached converged result
	// (no chain build, no iteration); Misses count computations that took
	// an admission token to build a chain and iterate it. Both count
	// every subgraph a request names: a single /v1/rank, each batch item
	// and each /v1/search.
	ResultHits int64 `json:"result_hits"`
	Misses     int64 `json:"misses"`

	// TailHits counts the /v1/rank result hits written from a stored
	// tail (the encoded scores an entry keeps from its first hit), so
	// only their node lists were formatted. StoredTailBytes is the size
	// of the tails the cache holds now.
	TailHits        int64 `json:"tail_hits"`
	StoredTailBytes int64 `json:"stored_tail_bytes"`

	// RawHits counts the tail hits the raw tier answered: bodies byte
	// for byte equal to one an entry registered, written without being
	// decoded. StoredRawBytes is the size of the registered bodies the
	// cache holds now; each is at most its tail, so it is at most
	// StoredTailBytes.
	RawHits        int64 `json:"raw_hits"`
	StoredRawBytes int64 `json:"stored_raw_bytes"`

	// Computations counts power iterations actually run by the serving
	// tier, batch items included. CoalescedWaits counts subgraphs (batch
	// items included) that piggybacked on an identical in-flight
	// computation instead of starting their own.
	Computations   int64 `json:"computations"`
	CoalescedWaits int64 `json:"coalesced_waits"`

	// InFlight is the number of computations currently holding an
	// admission token, a batch's included (each of its computations holds
	// one); AdmissionRejected counts immediate 429s (queue full) and
	// DeadlineFailures counts 503s (compute or queue deadline exceeded,
	// or the client gone while coalesced), a refused batch once.
	InFlight          int64 `json:"in_flight"`
	AdmissionRejected int64 `json:"admission_rejected"`
	DeadlineFailures  int64 `json:"deadline_failures"`

	// CacheEntries / Evictions describe the LRU; DiskEntriesLoaded is how
	// many entries the startup warm-load recovered and
	// DiskEntriesRejected how many it discarded as unservable (ids not
	// strictly increasing or outside the graph, or a result whose scores
	// do not match the ids or are not finite and non-negative);
	// EnginesBuilt counts search-engine constructions (a repeat search is
	// free).
	CacheEntries        int64 `json:"cache_entries"`
	Evictions           int64 `json:"evictions"`
	DiskEntriesLoaded   int64 `json:"disk_entries_loaded"`
	DiskEntriesRejected int64 `json:"disk_entries_rejected"`
	EnginesBuilt        int64 `json:"engines_built"`

	// BatchChainsRun counts batch items answered with a result, from any
	// tier; BatchChainsFailed counts batch items answered with a per-item
	// error (the survivors of a poisoned batch are still served — the
	// partial-results contract). A refused batch counts in neither.
	BatchChainsRun    int64 `json:"batch_chains_run"`
	BatchChainsFailed int64 `json:"batch_chains_failed"`
}

// statsSnapshot returns the current counters. The caller must hold s.mu.
func (s *Server) statsSnapshotLocked() Stats {
	st := s.stats
	st.CacheEntries = int64(s.cache.len())
	for el := s.cache.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		for _, tail := range e.tails {
			st.StoredTailBytes += int64(len(tail))
		}
		st.StoredRawBytes += int64(len(e.raw))
	}
	return st
}
