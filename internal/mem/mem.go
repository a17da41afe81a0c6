// Package mem provides the functional memory state of the simulated CMP.
//
// The simulator is "timing-first": coherence and network components model
// when an access completes, while the value of every word lives in a single
// global Store that is read/written at the access's completion time. This
// standard simplification keeps the directory protocol tractable while
// preserving the visibility order that synchronization code (barrier
// counters, sense flags, locks) depends on.
package mem

// WordSize is the byte size of the words the Store tracks.
const WordSize = 8

// Store is the functional word-addressable memory. The zero value is not
// usable; call NewStore.
type Store struct {
	words map[uint64]uint64

	loads, stores, rmws uint64
}

// NewStore returns an empty memory: every word reads as zero.
func NewStore() *Store {
	return &Store{words: make(map[uint64]uint64)}
}

func wordKey(addr uint64) uint64 { return addr / WordSize }

// Load returns the current value of the word containing addr.
func (s *Store) Load(addr uint64) uint64 {
	s.loads++
	return s.words[wordKey(addr)]
}

// StoreWord sets the value of the word containing addr.
func (s *Store) StoreWord(addr, v uint64) {
	s.stores++
	s.words[wordKey(addr)] = v
}

// RMW atomically (in simulated time the caller has already serialized the
// access) applies f to the word and returns the previous value.
func (s *Store) RMW(addr uint64, f func(uint64) uint64) (old uint64) {
	s.rmws++
	k := wordKey(addr)
	old = s.words[k]
	s.words[k] = f(old)
	return old
}

// FetchAdd atomically adds delta to the word containing addr, returning
// the previous value. Equivalent to RMW with an addition function, without
// making the caller build a closure.
func (s *Store) FetchAdd(addr, delta uint64) (old uint64) {
	s.rmws++
	k := wordKey(addr)
	old = s.words[k]
	s.words[k] = old + delta
	return old
}

// FetchStore atomically replaces the word containing addr with v,
// returning the previous value (the test&set / swap primitive).
func (s *Store) FetchStore(addr, v uint64) (old uint64) {
	s.rmws++
	k := wordKey(addr)
	old = s.words[k]
	s.words[k] = v
	return old
}

// Counters returns the number of functional loads, stores and RMWs.
func (s *Store) Counters() (loads, stores, rmws uint64) {
	return s.loads, s.stores, s.rmws
}

// Allocator is a bump allocator handing out simulated addresses for
// workload data structures. Consecutive lines interleave across L2 home
// banks (home = line mod cores), so spreading structures over separate
// lines also spreads them over the chip.
type Allocator struct {
	next     uint64
	lineSize uint64
}

// NewAllocator starts allocating at base (rounded up to a line boundary).
func NewAllocator(base uint64, lineSize int) *Allocator {
	a := &Allocator{next: base, lineSize: uint64(lineSize)}
	a.next = a.roundUp(a.next)
	return a
}

func (a *Allocator) roundUp(v uint64) uint64 {
	return (v + a.lineSize - 1) &^ (a.lineSize - 1)
}

// Line returns the address of one fresh, exclusively-owned cache line.
func (a *Allocator) Line() uint64 { return a.Lines(1) }

// Lines returns the base address of n fresh cache lines, aligning to a
// line boundary first.
func (a *Allocator) Lines(n int) uint64 {
	a.next = a.roundUp(a.next)
	base := a.next
	a.next += uint64(n) * a.lineSize
	return base
}

// Words returns a word-aligned block of n words; the block may share cache
// lines with previous Words allocations (dense array layout).
func (a *Allocator) Words(n int) uint64 {
	base := a.next
	a.next += uint64(n) * WordSize
	return base
}

// AlignLine advances the allocation point to the next line boundary.
func (a *Allocator) AlignLine() { a.next = a.roundUp(a.next) }
