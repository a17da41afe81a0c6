// Package cache implements the set-associative cache arrays used for the
// private L1 caches and the shared L2 banks: physically-indexed sets with
// true-LRU replacement and per-line coherence state.
package cache

import "fmt"

// State is the coherence state of a cached line (MESI).
type State byte

// MESI states. StateInvalid lines are not resident.
const (
	StateInvalid State = iota
	StateShared
	StateExclusive
	StateModified
)

// String returns the one-letter MESI name.
func (s State) String() string {
	switch s {
	case StateInvalid:
		return "I"
	case StateShared:
		return "S"
	case StateExclusive:
		return "E"
	case StateModified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", byte(s))
}

// Writable reports whether a line in this state may be written without an
// ownership request.
func (s State) Writable() bool { return s == StateExclusive || s == StateModified }

type line struct {
	tag   uint64
	state State
	lru   uint64 // higher = more recently used
}

// Cache is a set-associative array indexed by line address. Addresses are
// byte addresses; the cache extracts set index and tag itself.
type Cache struct {
	lineShift uint
	setBits   uint
	setMask   uint64
	ways      int
	lines     []line // set s is lines[s*ways : (s+1)*ways]
	tick      uint64

	hits, misses uint64
}

// New builds a cache of the given total size in bytes.
func New(size, ways, lineSize int) *Cache {
	if size <= 0 || ways <= 0 || lineSize <= 0 {
		panic(fmt.Sprintf("cache: invalid geometry size=%d ways=%d line=%d", size, ways, lineSize))
	}
	if lineSize&(lineSize-1) != 0 {
		panic(fmt.Sprintf("cache: line size %d not a power of two", lineSize))
	}
	numSets := size / (ways * lineSize)
	if numSets <= 0 || numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a positive power of two", numSets))
	}
	shift := uint(0)
	for 1<<shift != lineSize {
		shift++
	}
	setBits := uint(0)
	for 1<<setBits != numSets {
		setBits++
	}
	c := &Cache{
		lineShift: shift,
		setBits:   setBits,
		setMask:   uint64(numSets - 1),
		ways:      ways,
		lines:     make([]line, numSets*ways),
	}
	return c
}

// Sets returns the number of sets; Ways the associativity.
func (c *Cache) Sets() int { return len(c.lines) / c.ways }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Hits and Misses return the lookup counters.
func (c *Cache) Hits() uint64   { return c.hits }
func (c *Cache) Misses() uint64 { return c.misses }

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	lineAddr := addr >> c.lineShift
	return int(lineAddr & c.setMask), lineAddr >> c.setBits
}

// set returns the ways of set s.
func (c *Cache) set(s int) []line { return c.lines[s*c.ways : (s+1)*c.ways] }

// Lookup probes the cache. On a hit it refreshes LRU and returns the current
// state; on a miss it returns StateInvalid. Lookup counts hit/miss stats.
func (c *Cache) Lookup(addr uint64) State {
	set, tag := c.index(addr)
	ways := c.set(set)
	for i := range ways {
		l := &ways[i]
		if l.state != StateInvalid && l.tag == tag {
			c.tick++
			l.lru = c.tick
			c.hits++
			return l.state
		}
	}
	c.misses++
	return StateInvalid
}

// Peek returns the state of addr without touching LRU or counters.
func (c *Cache) Peek(addr uint64) State {
	set, tag := c.index(addr)
	ways := c.set(set)
	for i := range ways {
		l := &ways[i]
		if l.state != StateInvalid && l.tag == tag {
			return l.state
		}
	}
	return StateInvalid
}

// SetState updates the state of a resident line; it panics if the line is
// absent (protocol bug) unless the new state is StateInvalid.
func (c *Cache) SetState(addr uint64, s State) {
	set, tag := c.index(addr)
	ways := c.set(set)
	for i := range ways {
		l := &ways[i]
		if l.state != StateInvalid && l.tag == tag {
			l.state = s
			if s == StateInvalid {
				l.lru = 0
			}
			return
		}
	}
	if s != StateInvalid {
		panic(fmt.Sprintf("cache: SetState(%#x,%v) on absent line", addr, s))
	}
}

// Victim returns the line address that Insert would evict for addr, and
// whether an eviction is needed (set full and addr absent). It does not
// modify the cache.
func (c *Cache) Victim(addr uint64) (victimAddr uint64, evict bool) {
	set, tag := c.index(addr)
	var lru *line
	ways := c.set(set)
	for i := range ways {
		l := &ways[i]
		if l.state == StateInvalid {
			return 0, false
		}
		if l.tag == tag {
			return 0, false
		}
		if lru == nil || l.lru < lru.lru {
			lru = l
		}
	}
	return c.lineAddr(set, lru.tag), true
}

func (c *Cache) lineAddr(set int, tag uint64) uint64 {
	return ((tag << c.setBits) | uint64(set)) << c.lineShift
}

// Insert places addr with the given state, evicting the LRU line of the set
// if needed. It returns the evicted line's address and state when an
// eviction occurred. Inserting an already-resident line just updates state.
func (c *Cache) Insert(addr uint64, s State) (victimAddr uint64, victimState State, evicted bool) {
	if s == StateInvalid {
		panic("cache: inserting invalid line")
	}
	set, tag := c.index(addr)
	c.tick++
	var lru *line
	ways := c.set(set)
	for i := range ways {
		l := &ways[i]
		if l.state != StateInvalid && l.tag == tag {
			l.state = s
			l.lru = c.tick
			return 0, StateInvalid, false
		}
		if l.state == StateInvalid {
			if lru == nil || lru.state != StateInvalid {
				lru = l
			}
			continue
		}
		if lru == nil || (lru.state != StateInvalid && l.lru < lru.lru) {
			lru = l
		}
	}
	if lru.state != StateInvalid {
		victimAddr = c.lineAddr(set, lru.tag)
		victimState = lru.state
		evicted = true
	}
	lru.tag = tag
	lru.state = s
	lru.lru = c.tick
	return victimAddr, victimState, evicted
}

// ResidentLines returns the number of valid lines, for tests.
func (c *Cache) ResidentLines() int {
	n := 0
	for _, l := range c.lines {
		if l.state != StateInvalid {
			n++
		}
	}
	return n
}

// ForEach calls fn for every resident line (address and state), in set
// order. Used by invariant checkers and debug dumps.
func (c *Cache) ForEach(fn func(lineAddr uint64, st State)) {
	for i, l := range c.lines {
		if l.state != StateInvalid {
			fn(c.lineAddr(i/c.ways, l.tag), l.state)
		}
	}
}
