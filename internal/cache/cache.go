// Package cache implements the data-cache hierarchy the pipeline model
// issues loads and stores against: set-associative, write-back,
// write-allocate caches with true-LRU replacement, composed into a two-level
// hierarchy backed by a fixed-latency main memory.
//
// Latencies live in the configuration, not the cache: the paper's
// exploration assigns each cache level an access cycle count that its
// geometry must fit (via the array timing model), so the hierarchy here is
// purely functional — it reports which level served an access and leaves
// cycle accounting to the pipeline.
package cache

import (
	"fmt"

	"xpscalar/internal/timing"
)

// Level identifies which part of the hierarchy served an access.
type Level int

const (
	// LevelL1 is a first-level hit.
	LevelL1 Level = 1
	// LevelL2 is a first-level miss served by the second level.
	LevelL2 Level = 2
	// LevelMemory missed in all cache levels.
	LevelMemory Level = 3
)

func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelMemory:
		return "memory"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Stats counts accesses and misses for one cache.
type Stats struct {
	Accesses   uint64 `json:"accesses"`
	Misses     uint64 `json:"misses"`
	Writebacks uint64 `json:"writebacks"`
}

// MissRate returns misses per access.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// line is one way of a set, 16 bytes: tagd packs the tag with the dirty
// bit (tag<<1 | dirty), and lru is the logical timestamp of the last
// access — the smallest in a set is the least recently used way. A line
// is valid iff lru > the cache's base (see Cache).
type line struct {
	tagd uint64
	lru  uint64
}

// Cache is one set-associative, write-back, write-allocate cache level.
// It is not safe for concurrent use.
//
// The line array is flat (sets*assoc entries, row-major by set) and both
// geometry dimensions are powers of two, so an access is two shifts and a
// mask — the index arithmetic is precomputed per geometry, never per
// probe. tick is monotone for the cache's lifetime; base is its value at
// the last Reset, and a line stamped at or below base is invalid. That
// makes Reset O(1) and lets Reconfigure reuse the array's capacity for any
// geometry that fits, stale lines included.
type Cache struct {
	geom      timing.CacheGeom
	sets      []line // sets*assoc lines, row-major by set
	blockBits uint   // log2(BlockBytes)
	setBits   uint   // log2(Sets)
	tagShift  uint   // blockBits + setBits: address -> tag
	setMask   uint64
	tick      uint64
	base      uint64
	stats     Stats
}

// New builds an empty cache with the given geometry.
func New(geom timing.CacheGeom) (*Cache, error) {
	c := &Cache{}
	if err := c.Reconfigure(geom); err != nil {
		return nil, err
	}
	return c, nil
}

// Reconfigure gives the cache a new geometry and returns it to the
// just-constructed state, reusing the line array when its capacity
// suffices and allocating only when it must grow. The result is
// indistinguishable from New(geom).
func (c *Cache) Reconfigure(geom timing.CacheGeom) error {
	if err := geom.Validate(); err != nil {
		return err
	}
	c.reconfigure(geom)
	return nil
}

// reconfigure is Reconfigure for an already validated geometry.
func (c *Cache) reconfigure(geom timing.CacheGeom) {
	n := geom.Sets * geom.Assoc
	if cap(c.sets) >= n {
		c.sets = c.sets[:n]
	} else {
		c.sets = make([]line, n)
	}
	c.geom = geom
	c.blockBits = uint(log2(geom.BlockBytes))
	c.setBits = uint(log2(geom.Sets))
	c.tagShift = c.blockBits + c.setBits
	c.setMask = uint64(geom.Sets - 1)
	c.Reset()
}

// Geom returns the cache geometry.
func (c *Cache) Geom() timing.CacheGeom { return c.geom }

// Stats returns cumulative access statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Reset clears contents and statistics, returning the cache to its
// just-constructed state in O(1): every line already stamped is at or
// below the new base, so all of them read as invalid.
func (c *Cache) Reset() {
	c.base = c.tick
	c.stats = Stats{}
}

// access probes the cache; on a miss the block is allocated, evicting the
// LRU way. It reports whether the access hit and whether a dirty block was
// evicted (a writeback the next level must absorb).
func (c *Cache) access(addr uint64, write bool) (hit, writeback bool, victimAddr uint64) {
	c.stats.Accesses++
	c.tick++
	set := (addr >> c.blockBits) & c.setMask
	tagd := addr >> c.tagShift << 1 // blocks are >= 8 B, so no tag bit is lost
	base := c.base
	ways := c.sets[set*uint64(c.geom.Assoc) : (set+1)*uint64(c.geom.Assoc)]
	// The valid ways of a set always form a prefix: a fill takes the
	// first invalid way, and nothing invalidates a line between resets.
	// So the probe stops at the first invalid way, which is the victim.
	victim := -1
	for i := range ways {
		w := &ways[i]
		if w.lru <= base {
			victim = i
			break
		}
		if w.tagd&^1 == tagd {
			w.lru = c.tick
			if write {
				w.tagd |= 1
			}
			return true, false, 0
		}
	}
	c.stats.Misses++
	if victim < 0 {
		// Set full: evict the true-LRU way, writing it back if dirty.
		victim = 0
		for i := 1; i < len(ways); i++ {
			if ways[i].lru < ways[victim].lru {
				victim = i
			}
		}
		if v := ways[victim].tagd; v&1 != 0 {
			writeback = true
			victimAddr = (v>>1<<c.setBits | set) << c.blockBits
			c.stats.Writebacks++
		}
	}
	if write {
		tagd |= 1
	}
	ways[victim] = line{tagd: tagd, lru: c.tick}
	return false, writeback, victimAddr
}

// Contains reports whether the block holding addr is resident, without
// perturbing LRU state or statistics. Intended for tests.
func (c *Cache) Contains(addr uint64) bool {
	set := (addr >> c.blockBits) & c.setMask
	tagd := addr >> c.tagShift << 1
	ways := c.sets[set*uint64(c.geom.Assoc) : (set+1)*uint64(c.geom.Assoc)]
	for i := range ways {
		if ways[i].lru <= c.base {
			return false // valid ways form a prefix; see access
		}
		if ways[i].tagd&^1 == tagd {
			return true
		}
	}
	return false
}

func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Hierarchy is a two-level data-cache hierarchy over main memory.
type Hierarchy struct {
	l1, l2 *Cache
}

// NewHierarchy composes an L1 and a unified L2.
func NewHierarchy(l1Geom, l2Geom timing.CacheGeom) (*Hierarchy, error) {
	h := &Hierarchy{l1: &Cache{}, l2: &Cache{}}
	if err := h.Reconfigure(l1Geom, l2Geom); err != nil {
		return nil, err
	}
	return h, nil
}

// Reconfigure gives both levels new geometries and returns the hierarchy
// to the just-constructed state, reusing each level's line array where
// its capacity suffices (see Cache.Reconfigure). Both geometries are
// validated first, so on error the hierarchy is unchanged.
func (h *Hierarchy) Reconfigure(l1Geom, l2Geom timing.CacheGeom) error {
	if err := l1Geom.Validate(); err != nil {
		return fmt.Errorf("cache: L1: %w", err)
	}
	if err := l2Geom.Validate(); err != nil {
		return fmt.Errorf("cache: L2: %w", err)
	}
	h.l1.reconfigure(l1Geom)
	h.l2.reconfigure(l2Geom)
	return nil
}

// Access performs a load (write=false) or store (write=true) and returns
// the level that served it. Writebacks are propagated to the next level.
func (h *Hierarchy) Access(addr uint64, write bool) Level {
	hit, wb, victim := h.l1.access(addr, write)
	if wb {
		// Dirty L1 victim lands in L2 (write-back path).
		h.l2.access(victim, true)
	}
	if hit {
		return LevelL1
	}
	hit2, _, _ := h.l2.access(addr, false)
	if hit2 {
		return LevelL2
	}
	return LevelMemory
}

// L1 returns the first-level cache.
func (h *Hierarchy) L1() *Cache { return h.l1 }

// L2 returns the second-level cache.
func (h *Hierarchy) L2() *Cache { return h.l2 }
