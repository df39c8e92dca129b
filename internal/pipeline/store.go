package pipeline

import "repro/internal/telemetry"

// Store is the persistence seam under the result cache: a flat
// content-addressed byte store keyed by hex digest strings. Two
// implementations exist — PackStore (append-only pack segments with
// group-commit durability, the default) and HTTPStore (an sfs-serve
// daemon's store over the wire, the shared fleet-wide cache) — both
// behind the same Cache facade.
//
// The pipeline reads through GetMany, one call per window of jobs, so a
// store pays its per-lookup cost (a lock, a round trip) once per window;
// single-key Get serves everything else. Implementations must be safe for
// concurrent use: the pipeline's worker pool calls GetMany and Put from
// many goroutines at once.
type Store interface {
	// Get returns the bytes stored under key; ok is false on a miss.
	// Unreadable, torn or checksum-failing entries are misses — the
	// writer will overwrite them — never errors.
	Get(key string) ([]byte, bool)
	// GetMany is Get for a window of keys: out[i] holds the bytes stored
	// under keys[i], nil on a miss (a hit is never nil, even when empty),
	// with every miss rule of Get. The values may share one buffer.
	GetMany(keys []string) [][]byte
	// Put stores data under key. A Put is immediately visible to Get on
	// the same store, but durability may be deferred until the next
	// Flush (the group-commit contract). Overwriting a key is allowed
	// and idempotent by the cache-key contract: the same key always
	// denotes the same bytes.
	Put(key string, data []byte) error
	// Flush makes every completed Put durable — the group-commit
	// barrier. One Flush covers the whole batch of Puts since the last.
	Flush() error
	// Close flushes, persists any index state, and releases resources.
	// The store is unusable afterwards.
	Close() error
	// Stats describes the store's current contents.
	Stats() StoreStats
}

// StoreStats summarises a store's contents for -cache-stats and tests.
type StoreStats struct {
	// Backend names the implementation: "pack", or "http/" and the
	// server's backend ("http" alone when the server did not answer).
	Backend string
	// Entries is the number of live keys.
	Entries int
	// Segments is the number of pack segments (0 for non-segment stores).
	Segments int
	// Bytes is the stored payload footprint: for PackStore the bytes of
	// all segment files (live and superseded entries alike).
	Bytes int64
}

// telemetrySetter is implemented by stores whose I/O metrics can be
// attributed to a specific registry; Cache.SetTelemetry forwards through
// it (remote stores may not implement it, which is fine).
type telemetrySetter interface {
	SetTelemetry(reg *telemetry.Registry)
}
