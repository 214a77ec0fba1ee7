package core

// PlanPool reports a runner's private plan builds (a subset of its
// misses) and its recycling state: entries on the free list, and dead
// entries parked in the graveyard until no memo holds them.
func PlanPool(r *BatchRunner) (private uint64, free, dead int) {
	return r.planPrivate, len(r.planFree), len(r.planDead)
}
