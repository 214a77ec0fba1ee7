package valency

import "repro/internal/model"

// tinyBudget fits the smallest slot array (32-byte slots) and a 1 KiB
// key arena: about 20 keys of the 47–65 bytes the small models produce,
// so a table evicts every few inserts.
const tinyBudget = memoMinSlots*32 + 1<<10

// MemoBudget is the byte budget of every production memo table.
const MemoBudget = memoBudget

// NewTinyEngine returns an engine whose memo tables hold tinyBudget
// bytes each. Only tests can build one: the budget is not an option.
func NewTinyEngine(m *model.Model, p Params) *Engine { return newEngine(m, p, tinyBudget) }

// Evictions returns how many times the engine's tables evicted.
func (e *Engine) Evictions() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.inner.evictions + e.outer.evictions + e.limits.evictions
}

// HullMidpoint is the midpoint a settle reports for a converged hull,
// shared with the tests' settle oracles.
var HullMidpoint = hullMidpoint
