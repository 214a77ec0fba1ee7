package valency

import (
	"math/rand"
	"testing"
)

// newRand returns the PRNG every memo-table test draws from: one zero
// source, so a failure replays exactly.
func newRand() *rand.Rand { return rand.New(rand.NewSource(0)) }

// TestMemoTableBoundedUnderRandomRepeats is the table's bounded-structure
// property: pushing ten times its budget through a small table, with
// random repeats and keys of mixed lengths, it never holds more entries
// or bytes than the budget allows, a key just stored is found, and every
// hit returns the last value stored for its key (checked against a plain
// map that never forgets).
func TestMemoTableBoundedUnderRandomRepeats(t *testing.T) {
	const budget = 16 << 10
	rng := newRand()
	tab := memoTable[limitEntry]{budget: budget}
	ref := map[string]limitEntry{}
	var keys [][]byte
	pushed := 0
	for pushed < 10*budget {
		var key []byte
		if len(keys) > 0 && rng.Intn(3) == 0 {
			key = keys[rng.Intn(len(keys))]
		} else {
			key = make([]byte, 1+rng.Intn(120))
			rng.Read(key)
			if rng.Intn(4) == 0 && len(keys) > 0 {
				// A prefix or extension of an earlier key: same leading
				// bytes, different length.
				prev := keys[rng.Intn(len(keys))]
				key = append(append(key[:0], prev[:rng.Intn(len(prev))]...), byte(rng.Intn(256)))
			}
			keys = append(keys, key)
		}
		v := limitEntry{limit: rng.Float64(), ok: rng.Intn(2) == 0}
		tab.put(key, v)
		ref[string(key)] = v
		pushed += len(key)

		if got, hit := tab.get(key); !hit || got != v {
			t.Fatalf("after put(%x, %v): get = %v, %v", key, v, got, hit)
		}
		probe := keys[rng.Intn(len(keys))]
		if got, hit := tab.get(probe); hit && got != ref[string(probe)] {
			t.Fatalf("get(%x) = %v, last stored %v", probe, got, ref[string(probe)])
		}
		if n, b := tab.used, tab.footprint(); b > budget || n*tab.slotSize() > budget {
			t.Fatalf("table holds %d entries in %d bytes, budget %d", n, b, budget)
		}
	}
	if tab.evictions == 0 {
		t.Fatalf("%d bytes of keys through a %d-byte table never evicted", pushed, budget)
	}
	if tab.hits == 0 || tab.misses == 0 {
		t.Fatalf("want both hits and misses, got %d / %d", tab.hits, tab.misses)
	}
}

// TestMemoTableComparesFullKeys pins that a matching hash alone is never
// a hit: a lookup carrying another key's hash must still miss.
func TestMemoTableComparesFullKeys(t *testing.T) {
	tab := memoTable[Interval]{budget: memoBudget}
	a, b := []byte("configuration-a"), []byte("configuration-b")
	tab.put(a, Interval{Lo: 1, Hi: 2})
	if _, found := tab.find(b, memoHash(a)); found {
		t.Fatal("a different key with the same hash was reported as stored")
	}
	if _, found := tab.find(a[:len(a)-1], memoHash(a)); found {
		t.Fatal("a prefix of a stored key with the same hash was reported as stored")
	}
	if iv, hit := tab.get(a); !hit || iv != (Interval{Lo: 1, Hi: 2}) {
		t.Fatalf("get(a) = %v, %v", iv, hit)
	}
}

// TestMemoTableGrowsLazily pins that a table allocates nothing until its
// first insert, and grows from a small size rather than its budget.
func TestMemoTableGrowsLazily(t *testing.T) {
	tab := memoTable[Interval]{budget: memoBudget}
	if _, hit := tab.get([]byte("k")); hit || tab.footprint() != 0 {
		t.Fatalf("empty table: hit %v, %d bytes", hit, tab.footprint())
	}
	tab.put([]byte("k"), Interval{})
	if b := tab.footprint(); b == 0 || b > 16<<10 {
		t.Fatalf("first insert allocated %d bytes, want a small table", b)
	}
}

// TestMemoTableInsertsDoNotAllocate pins the steady state: once a table
// has grown, hits, misses, overwrites, inserts and evictions allocate
// nothing.
func TestMemoTableInsertsDoNotAllocate(t *testing.T) {
	tab := memoTable[limitEntry]{budget: tinyBudget}
	key := make([]byte, 60)
	i := 0
	step := func() {
		i++
		key[0], key[1] = byte(i), byte(i>>8)
		tab.put(key, limitEntry{limit: float64(i), ok: true})
		tab.get(key)
	}
	for range 1000 {
		step()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("steady-state put/get allocated %.1f times per call", allocs)
	}
	if tab.evictions == 0 {
		t.Fatal("the tiny table never evicted")
	}
}
