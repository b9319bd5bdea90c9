package buffer

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/storage"
)

// Frame is a pinned page in the buffer pool. The caller owns the frame
// until Unpin; Data returns the live page image, and MarkDirty schedules
// writeback on eviction or flush.
type Frame struct {
	id    storage.PageID
	data  []byte
	pins  int
	dirty bool
	lru   *list.Element // position in the pool's eviction list when unpinned

	// ready is non-nil while the frame's store read is in flight: the
	// loading fetcher closes it once data is populated (or loadErr set),
	// and concurrent fetchers of the same page wait on it instead of
	// issuing a second read. A nil ready means the frame is loaded.
	ready   chan struct{}
	loadErr error // set before ready is closed when the store read failed
}

// ID returns the page id held by the frame.
func (f *Frame) ID() storage.PageID { return f.id }

// Data returns the page image. The slice is valid while the frame is
// pinned; callers must not retain it past Unpin. The contract carries
// correctness, not just hygiene: once unpinned, the frame may be evicted
// and its buffer handed to the next miss, which overwrites it with
// another page's image.
func (f *Frame) Data() []byte { return f.data }

// MarkDirty records that the page image was modified and must reach the
// store before the frame is recycled.
func (f *Frame) MarkDirty() { f.dirty = true }

// PoolStats is a snapshot of buffer pool activity.
type PoolStats struct {
	Hits      uint64 // fetches served from memory
	Misses    uint64 // fetches that read from the store
	Evictions uint64 // frames recycled to make room
	Flushes   uint64 // dirty pages written back
}

// Pool is an LRU buffer pool over a Store. It models the paper's
// "database buffer": table pages are fetched through it, and the Index
// Buffer Space is accounted as a share of the same memory budget (the
// entry-count budget lives in internal/core; the pool only serves pages).
//
// Pool is safe for concurrent use.
type Pool struct {
	mu       sync.Mutex
	store    Store
	capacity int
	frames   map[storage.PageID]*Frame
	evict    *list.List // unpinned frames, front = least recently used
	stats    PoolStats

	// check, when set, validates every page image read from the store
	// before any fetcher can see it (see SetPageCheck).
	check func(storage.PageID, []byte) error
}

// NewPool creates a pool holding at most capacity pages. Capacity must be
// at least 1.
func NewPool(store Store, capacity int) (*Pool, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("buffer: pool capacity %d, want >= 1", capacity)
	}
	return &Pool{
		store:    store,
		capacity: capacity,
		frames:   make(map[storage.PageID]*Frame, capacity),
		evict:    list.New(),
	}, nil
}

// SetPageCheck installs the structural check every page image read from
// the store must pass before the pool admits it. A failing image is
// treated like a failed read: the fetch returns the check's error and
// the frame is not kept, so the next fetch reads and checks again. The
// layer that owns the page format installs it (the heap table does, at
// construction); images the pool already holds, and pages changed in
// memory, are not rechecked — they are trusted from then on.
func (p *Pool) SetPageCheck(check func(storage.PageID, []byte) error) {
	p.mu.Lock()
	p.check = check
	p.mu.Unlock()
}

// Capacity returns the configured frame count.
func (p *Pool) Capacity() int { return p.capacity }

// Stats returns a snapshot of pool counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Fetch pins page id into memory and returns its frame. Every Fetch must
// be paired with an Unpin.
//
// The store read of a miss happens outside the pool mutex: concurrent
// fetches of distinct cold pages overlap their device I/O (the property
// parallel scans depend on — a pool-wide lock held across a simulated
// device's read latency would serialize every worker). Concurrent
// fetches of the same cold page coalesce: the first issues the read,
// the rest wait on the frame's ready channel and share the result.
func (p *Pool) Fetch(id storage.PageID) (*Frame, error) {
	p.mu.Lock()

	if f, ok := p.frames[id]; ok {
		p.stats.Hits++
		if f.pins == 0 && f.lru != nil {
			p.evict.Remove(f.lru)
			f.lru = nil
		}
		f.pins++ // pin before waiting so the loading frame cannot be evicted
		ready := f.ready
		p.mu.Unlock()
		if ready != nil {
			<-ready
			// loadErr is published before ready is closed; the channel
			// receive orders this read after that write.
			if f.loadErr != nil {
				return nil, f.loadErr
			}
		}
		return f, nil
	}

	p.stats.Misses++
	data, err := p.frameBufLocked()
	if err != nil {
		p.mu.Unlock()
		return nil, err
	}
	f := &Frame{id: id, data: data, pins: 1, ready: make(chan struct{})}
	p.frames[id] = f
	check := p.check
	p.mu.Unlock()

	err = p.store.Read(id, f.data)
	if err == nil && check != nil {
		err = check(id, f.data)
	}

	p.mu.Lock()
	if err != nil {
		// Orphan the frame: waiters already holding a pin observe loadErr
		// and return it; the frame is no longer reachable or evictable.
		// An image that failed the page check is dropped the same way, so
		// a corrupt page is never admitted.
		f.loadErr = err
		delete(p.frames, id)
	}
	ready := f.ready
	f.ready = nil
	p.mu.Unlock()
	close(ready)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Allocate creates a new zeroed page in the store and returns it pinned.
func (p *Pool) Allocate() (*Frame, error) {
	id, err := p.store.Allocate()
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	data, err := p.frameBufLocked()
	if err != nil {
		return nil, err
	}
	clear(data)
	f := &Frame{id: id, data: data, pins: 1}
	p.frames[id] = f
	return f, nil
}

// Unpin releases one pin on the frame. When the pin count reaches zero
// the frame becomes eligible for eviction.
func (p *Pool) Unpin(f *Frame) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f.pins <= 0 {
		panic(fmt.Sprintf("buffer: Unpin of page %d with %d pins", f.id, f.pins))
	}
	f.pins--
	if f.pins == 0 {
		f.lru = p.evict.PushBack(f)
	}
}

// frameBufLocked returns a page buffer for a new frame: a fresh one
// while the pool has room, else the buffer of the frame it evicts. The
// victim is unpinned, so by the Data contract nobody still reads it.
// The buffer's contents are stale; the caller overwrites or clears it.
func (p *Pool) frameBufLocked() ([]byte, error) {
	if len(p.frames) < p.capacity {
		return make([]byte, PageSize), nil
	}
	return p.evictOneLocked()
}

// evictOneLocked writes back and drops the least recently used unpinned
// frame, returning its page buffer for reuse. It fails if every frame is
// pinned, or if the writeback fails — the victim then stays resident,
// dirty and first in line for eviction.
func (p *Pool) evictOneLocked() ([]byte, error) {
	el := p.evict.Front()
	if el == nil {
		return nil, fmt.Errorf("buffer: pool exhausted: all %d frames pinned", p.capacity)
	}
	f := el.Value.(*Frame)
	if f.dirty {
		if err := p.store.Write(f.id, f.data); err != nil {
			return nil, fmt.Errorf("buffer: writeback of page %d: %w", f.id, err)
		}
		p.stats.Flushes++
		f.dirty = false
	}
	p.evict.Remove(el)
	f.lru = nil
	delete(p.frames, f.id)
	p.stats.Evictions++
	data := f.data
	f.data = nil // a stale *Frame now fails loudly instead of reading another page
	return data, nil
}

// FlushAll writes every dirty frame back to the store. Pinned frames are
// flushed but stay resident.
func (p *Pool) FlushAll() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, f := range p.frames {
		if f.dirty {
			if err := p.store.Write(f.id, f.data); err != nil {
				return fmt.Errorf("buffer: flush of page %d: %w", f.id, err)
			}
			p.stats.Flushes++
			f.dirty = false
		}
	}
	return nil
}

// DirtyCount returns the number of resident frames with unflushed
// modifications. The checkpointer uses it to decide whether a flush
// pass would do any work.
func (p *Pool) DirtyCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, f := range p.frames {
		if f.dirty {
			n++
		}
	}
	return n
}

// Resident returns the number of pages currently held in memory.
func (p *Pool) Resident() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.frames)
}
