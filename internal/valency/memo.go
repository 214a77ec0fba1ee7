package valency

import (
	"bytes"
	"hash/maphash"
	"unsafe"
)

// memoBudget bounds each of an Engine's three memo tables: slot array
// plus key arena, in bytes. A table that would outgrow it evicts every
// entry and starts over, so an engine never holds more than 3 ×
// memoBudget of memoized results, whatever it is asked. Fresh-input
// requests share no entries across runs, so the budget is sized to one
// run: 512 KiB holds the largest 12-round lower-bound run (twoagent,
// ~2,000 limit and ~1,400 inner entries at 54-byte keys) without
// evicting, and over 20 fresh-input runs per lower-bound spec on one
// engine it keeps at least 98.5% of a never-full table's hits. 256 KiB
// keeps 98% too, but slows a greedy run on nonsplit:3, whose settled
// limits fill the tables fastest; 8 MiB tables only hold dead entries
// longer (PERF.md, "One parallel axis").
const memoBudget = 512 << 10

const (
	// memoMinSlots and memoMinArena size a table's first allocation,
	// made lazily by its first insert.
	memoMinSlots = 64
	memoMinArena = 4 << 10
	// memoUsed is set in every stored hash, so a zero hash marks an
	// empty slot.
	memoUsed = 1 << 63
)

// memoSeed keys the hash of every memo table.
var memoSeed = maphash.MakeSeed()

// memoTable is a bounded memo from byte-string keys to values of type V
// (Interval or limitEntry; V must hold no pointers). It probes linearly
// over a power-of-two slot array kept at most half full. A slot holds
// the key's 64-bit hash, its position in a byte arena, and the value
// inline, so the table holds no pointers for the GC to scan, an insert
// allocates nothing once the table has grown, each key is hashed once
// per operation, and growth moves slots without rehashing key bytes.
// Lookups compare the full key, never trust the hash alone.
//
// A table that cannot grow within its byte budget evicts everything
// (clear-on-full) and keeps its arrays. Every memoized value is a pure
// function of its key, so eviction changes hit counts, never results.
//
// The zero value with a budget set is an empty table that allocates on
// its first insert. A memoTable is not safe for concurrent use; the
// Engine guards its tables with its mutex.
type memoTable[V any] struct {
	budget int
	slots  []memoSlot[V]
	arena  []byte
	used   int // keys held

	hits, misses, evictions uint64
}

type memoSlot[V any] struct {
	hash      uint64 // key hash | memoUsed; 0 marks an empty slot
	off, klen uint32 // the key is arena[off : off+klen]
	val       V
}

func memoHash(key []byte) uint64 { return maphash.Bytes(memoSeed, key) | memoUsed }

func (t *memoTable[V]) slotSize() int { return int(unsafe.Sizeof(memoSlot[V]{})) }

// footprint returns the bytes the table holds: slot array plus arena
// capacity. It never exceeds the budget.
func (t *memoTable[V]) footprint() int { return len(t.slots)*t.slotSize() + cap(t.arena) }

// find returns the index of key's slot, or of the empty slot that ends
// its probe sequence. The table must have slots.
func (t *memoTable[V]) find(key []byte, h uint64) (int, bool) {
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.hash == 0 {
			return int(i), false
		}
		if s.hash == h && int(s.klen) == len(key) && bytes.Equal(t.arena[s.off:s.off+s.klen], key) {
			return int(i), true
		}
	}
}

// get returns the value stored for key and counts the hit or miss.
func (t *memoTable[V]) get(key []byte) (v V, hit bool) {
	if t.used > 0 {
		if i, ok := t.find(key, memoHash(key)); ok {
			t.hits++
			return t.slots[i].val, true
		}
	}
	t.misses++
	return v, false
}

// put stores v for key, replacing any earlier value. A key too long for
// even an empty table is not stored.
func (t *memoTable[V]) put(key []byte, v V) {
	h := memoHash(key)
	var i int
	if len(t.slots) > 0 {
		var found bool
		if i, found = t.find(key, h); found {
			t.slots[i].val = v
			return
		}
	}
	if 2*(t.used+1) > len(t.slots) || len(t.arena)+len(key) > cap(t.arena) {
		if !t.makeRoom(len(key)) {
			return
		}
		i, _ = t.find(key, h)
	}
	off := len(t.arena)
	t.arena = append(t.arena, key...)
	t.slots[i] = memoSlot[V]{hash: h, off: uint32(off), klen: uint32(len(key)), val: v}
	t.used++
}

// makeRoom readies the table for one more key of n bytes by growing the
// slot array (kept at most half full) or the arena within the budget.
// When the budget cannot hold them it evicts every entry and tries
// again; it reports false only when the key does not fit an empty table.
func (t *memoTable[V]) makeRoom(n int) bool {
	for {
		slots := max(len(t.slots), memoMinSlots)
		if 2*(t.used+1) > slots {
			slots *= 2
		}
		room := t.budget - slots*t.slotSize()
		arena, need := cap(t.arena), len(t.arena)+n
		if need > arena {
			arena = min(max(2*arena, need, memoMinArena), room)
		}
		if need <= arena && arena <= room {
			t.grow(slots, arena)
			return true
		}
		if t.used == 0 {
			return false
		}
		clear(t.slots)
		t.arena = t.arena[:0]
		t.used = 0
		t.evictions++
	}
}

// grow resizes the slot array and the arena to the given capacities;
// slots move by their stored hash.
func (t *memoTable[V]) grow(slots, arena int) {
	if arena > cap(t.arena) {
		t.arena = append(make([]byte, 0, arena), t.arena...)
	}
	if slots == len(t.slots) {
		return
	}
	old := t.slots
	t.slots = make([]memoSlot[V], slots)
	mask := uint64(slots - 1)
	for _, s := range old {
		if s.hash == 0 {
			continue
		}
		i := s.hash & mask
		for t.slots[i].hash != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
