package moe

// DecideFullForTest is Decide with the regime dispatcher bypassed: every
// observation walks the full degradation ladder, as single-shot Decide did
// before it became the degenerate batch. The differential suites use it as
// the reference the fast path is pinned against.
func (r *Runtime) DecideFullForTest(obs Observation) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.decideFullLocked(obs)
	r.publishLocked()
	return n
}
