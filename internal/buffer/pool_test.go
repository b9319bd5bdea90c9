package buffer

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"repro/internal/storage"
)

func newPoolT(t *testing.T, capacity, pages int) (*Pool, *SimDisk) {
	t.Helper()
	d := NewSimDisk()
	for i := 0; i < pages; i++ {
		if _, err := d.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	p, err := NewPool(d, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return p, d
}

func TestNewPoolRejectsZeroCapacity(t *testing.T) {
	if _, err := NewPool(NewSimDisk(), 0); err == nil {
		t.Error("capacity 0 should fail")
	}
}

func TestPoolFetchHitMiss(t *testing.T) {
	p, _ := newPoolT(t, 2, 2)
	f, err := p.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	if f.ID() != 0 {
		t.Errorf("frame id = %d", f.ID())
	}
	p.Unpin(f)
	f2, err := p.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(f2)
	s := p.Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss then 1 hit", s)
	}
}

func TestPoolEvictsLRU(t *testing.T) {
	p, d := newPoolT(t, 2, 3)
	for _, id := range []storage.PageID{0, 1} {
		f, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(f)
	}
	// Touch page 0 so page 1 is LRU.
	f, _ := p.Fetch(0)
	p.Unpin(f)
	// Fetching page 2 must evict page 1.
	f2, err := p.Fetch(2)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(f2)
	if p.Resident() != 2 {
		t.Errorf("resident = %d, want 2", p.Resident())
	}
	base := d.Stats()
	f0, _ := p.Fetch(0) // still resident: no device read
	p.Unpin(f0)
	if got := d.Stats().Sub(base).Reads; got != 0 {
		t.Errorf("page 0 refetch caused %d device reads, want 0", got)
	}
	f1, _ := p.Fetch(1) // evicted: device read
	p.Unpin(f1)
	if got := d.Stats().Sub(base).Reads; got != 1 {
		t.Errorf("page 1 refetch caused %d device reads, want 1", got)
	}
}

func TestPoolWritebackOnEvict(t *testing.T) {
	p, d := newPoolT(t, 1, 2)
	f, err := p.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	f.Data()[0] = 0xAB
	f.MarkDirty()
	p.Unpin(f)
	// Force eviction of page 0.
	f1, err := p.Fetch(1)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(f1)
	buf := make([]byte, PageSize)
	if err := d.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xAB {
		t.Error("dirty page not written back on eviction")
	}
	if p.Stats().Flushes != 1 {
		t.Errorf("flushes = %d, want 1", p.Stats().Flushes)
	}
}

func TestPoolAllPinnedFails(t *testing.T) {
	p, _ := newPoolT(t, 1, 2)
	f, err := p.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Fetch(1); err == nil {
		t.Error("fetch with all frames pinned should fail")
	}
	p.Unpin(f)
	if _, err := p.Fetch(1); err != nil {
		t.Errorf("fetch after unpin: %v", err)
	}
}

func TestPoolAllocate(t *testing.T) {
	p, d := newPoolT(t, 2, 0)
	f, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	f.Data()[7] = 9
	f.MarkDirty()
	p.Unpin(f)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	if err := d.Read(f.ID(), buf); err != nil {
		t.Fatal(err)
	}
	if buf[7] != 9 {
		t.Error("FlushAll did not persist allocated page")
	}
}

func TestPoolUnpinUnderflowPanics(t *testing.T) {
	p, _ := newPoolT(t, 1, 1)
	f, err := p.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(f)
	defer func() {
		if recover() == nil {
			t.Error("double unpin should panic")
		}
	}()
	p.Unpin(f)
}

func TestPoolConcurrentFetch(t *testing.T) {
	const pages = 16
	p, _ := newPoolT(t, 4, pages)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := storage.PageID((seed + i) % pages)
				f, err := p.Fetch(id)
				if err != nil {
					// All-pinned is possible under contention; retry.
					continue
				}
				if f.ID() != id {
					t.Errorf("fetched %d, want %d", f.ID(), id)
				}
				p.Unpin(f)
			}
		}(g)
	}
	wg.Wait()
}

// TestPoolWritebackFailureKeepsVictim is the regression test for an
// eviction whose writeback fails: the victim must stay evictable, so
// once writes succeed again the pool recovers instead of reporting every
// frame pinned while none is.
func TestPoolWritebackFailureKeepsVictim(t *testing.T) {
	d := NewSimDisk()
	for i := 0; i < 3; i++ {
		if _, err := d.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	fs := NewFaultStore(d)
	p, err := NewPool(fs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []storage.PageID{0, 1} {
		f, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		f.Data()[0] = byte(0xC0 + id)
		f.MarkDirty()
		p.Unpin(f)
	}
	fs.SetWritesLeft(0)
	for i := 0; i < 2; i++ {
		if _, err := p.Fetch(2); !errors.Is(err, ErrInjected) {
			t.Fatalf("failed eviction %d: err = %v, want injected writeback fault", i, err)
		}
	}
	if got := p.Resident(); got != 2 {
		t.Errorf("resident = %d after failed evictions, want 2", got)
	}
	fs.SetWritesLeft(-1)
	f, err := p.Fetch(2)
	if err != nil {
		t.Fatalf("fetch after writes re-armed: %v", err)
	}
	p.Unpin(f)
	buf := make([]byte, PageSize)
	if err := d.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xC0 {
		t.Errorf("victim page 0 on disk = %#x, want its dirty image written back", buf[0])
	}
}

// TestPoolRecyclesVictimBuffer: a miss into a full pool reuses the
// evicted frame's page buffer instead of allocating a new 8 KiB one.
func TestPoolRecyclesVictimBuffer(t *testing.T) {
	const pages = 16
	p, _ := newPoolT(t, 4, pages)
	fetch := func(id storage.PageID) *Frame {
		f, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	for id := storage.PageID(0); id < 4; id++ {
		p.Unpin(fetch(id))
	}
	victim := fetch(0)
	buf := &victim.Data()[0]
	p.Unpin(victim)
	for id := storage.PageID(1); id < 4; id++ { // page 0 becomes least recently used
		p.Unpin(fetch(id))
	}
	f := fetch(4)
	if &f.Data()[0] != buf {
		t.Error("miss into a full pool did not reuse the victim's page buffer")
	}
	if victim.Data() != nil {
		t.Error("evicted frame still exposes the recycled buffer")
	}
	p.Unpin(f)

	var before, after runtime.MemStats
	const misses = 1000
	runtime.ReadMemStats(&before)
	for i := 0; i < misses; i++ {
		p.Unpin(fetch(storage.PageID(i % pages)))
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / misses; per >= PageSize/2 {
		t.Errorf("a miss into a full pool allocates %d bytes, want no page buffer (%d bytes)", per, PageSize)
	}
}

// TestPoolRecycledFramesParallelIntegrity fetches through a pool far
// smaller than the page set from several goroutines, so buffers are
// recycled constantly, and checks every pinned frame holds its own
// page's image — the race detector watches the reuse.
func TestPoolRecycledFramesParallelIntegrity(t *testing.T) {
	const pages = 32
	p, d := newPoolT(t, 6, pages)
	img := make([]byte, PageSize)
	for id := 0; id < pages; id++ {
		for i := range img {
			img[i] = byte(id)
		}
		if err := d.Write(storage.PageID(id), img); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				id := storage.PageID((seed*7 + i*3) % pages)
				f, err := p.Fetch(id)
				if err != nil {
					continue // all frames pinned under contention
				}
				data := f.Data()
				if data[0] != byte(id) || data[PageSize-1] != byte(id) {
					t.Errorf("page %d frame holds image of page %d/%d", id, data[0], data[PageSize-1])
				}
				p.Unpin(f)
			}
		}(g)
	}
	wg.Wait()
}

// TestPoolPageCheckRejectsImage: an image that fails the installed page
// check is reported like a read error and never admitted — each fetch
// reads the store and checks again.
func TestPoolPageCheckRejectsImage(t *testing.T) {
	p, d := newPoolT(t, 4, 3)
	errBad := errors.New("bad image")
	p.SetPageCheck(func(id storage.PageID, data []byte) error {
		if id == 1 {
			return errBad
		}
		return nil
	})
	for i := 0; i < 2; i++ {
		base := d.Stats()
		if _, err := p.Fetch(1); !errors.Is(err, errBad) {
			t.Fatalf("fetch %d of a rejected page: err = %v", i, err)
		}
		if got := d.Stats().Sub(base).Reads; got != 1 {
			t.Errorf("fetch %d of a rejected page read the store %d times, want 1", i, got)
		}
		if got := p.Resident(); got != 0 {
			t.Errorf("resident = %d, rejected image was admitted", got)
		}
	}
	f, err := p.Fetch(2)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(f)
}
