package core

import (
	"fmt"

	"gpmetis/internal/checkpoint"
	"gpmetis/internal/fault"
)

// This file implements checkpoint/resume for the single-GPU pipeline
// (DESIGN.md §10). Snapshots are taken at the level boundaries — the
// same consistency points where cancellation polls and paranoid
// verification run — and restoring one rebuilds the run's device state
// without charging the modeled clock or burning fault coins, so a
// resumed run replays the exact remaining decision sequence of an
// uninterrupted one: same partition, same edge cut, same modeled time.

// optionsSig fingerprints the option fields that steer the deterministic
// pipeline. Policy knobs (Degrade, Verify, hooks) are excluded: they
// change what happens on failure or how much checking runs, not which
// partition a healthy resume computes. The fault injector's seed is
// included because the coin sequence is part of the replayed behavior;
// the caller is responsible for re-arming the same scenario rules.
func (r *run) optionsSig() uint64 {
	o := &r.o
	return checkpoint.SigHash(
		uint64(r.k),
		uint64(o.Seed),
		checkpoint.Float64Bits(o.UBFactor),
		uint64(o.GPUThreshold),
		uint64(o.CoarsenTo),
		uint64(o.RefineIters),
		uint64(o.Merge),
		uint64(o.Distribution),
		uint64(o.MaxThreads),
		uint64(o.CPUThreads),
		uint64(o.Faults.Seed()),
	)
}

// snapshot builds a State at the just-completed boundary and hands it to
// the Checkpoint hook. The CSR graphs and cmaps are shared with the run
// (immutable once built); everything the run keeps mutating — partition
// vector, timeline, events — is copied.
func (r *run) snapshot(phase checkpoint.Phase, level int) error {
	if r.o.Checkpoint == nil {
		return nil
	}
	live := len(r.levels)
	if phase == checkpoint.PhaseUncoarsen {
		live = level // levels >= level released their device state already
	}
	st := &checkpoint.State{
		GraphDigest:    r.digest,
		OptionsSig:     r.optionsSig(),
		Phase:          phase,
		Level:          level,
		GPULevels:      r.res.GPULevels,
		CPULevels:      r.res.CPULevels,
		MatchConflicts: r.res.MatchConflicts,
		MatchAttempts:  r.res.MatchAttempts,
		Timeline:       r.res.Timeline.Phases(),
		Clock:          r.res.Timeline.Total(),
		Stats:          r.d.Stats(),
		Fault:          r.o.Faults.ExportCounters(),
	}
	for j := 0; j < live; j++ {
		st.Graphs = append(st.Graphs, r.levels[j].coarse.g)
		st.Cmaps = append(st.Cmaps, r.levels[j].cmap)
	}
	if r.part != nil {
		st.Part = append([]int(nil), r.part...)
	}
	for _, ev := range r.res.Events {
		st.Events = append(st.Events, checkpoint.Event{
			Site: string(ev.Site), Action: ev.Action, Level: ev.Level,
			Seconds: ev.Seconds, Detail: ev.Detail,
		})
	}
	if err := r.o.Checkpoint(st); err != nil {
		return fmt.Errorf("core: checkpoint at %s: %w", st.Describe(), err)
	}
	return nil
}

// restore rebuilds the run from a snapshot: it re-allocates the device
// arrays the interrupted run held at the boundary (the fault injector is
// not yet installed, so no coins burn and no artificial cap applies),
// reattaches the host mirrors, and rewinds the modeled clock, device
// stats, result counters, and fault-coin counters to the boundary.
func (r *run) restore(st *checkpoint.State) error {
	if st.GraphDigest != r.digest {
		return fmt.Errorf("%w: input graph differs from the checkpointed run", checkpoint.ErrMismatch)
	}
	if st.OptionsSig != r.optionsSig() {
		return fmt.Errorf("%w: options differ from the checkpointed run", checkpoint.ErrMismatch)
	}
	if len(st.Graphs) != len(st.Cmaps) {
		return fmt.Errorf("%w: %d graphs but %d cmaps", checkpoint.ErrMismatch, len(st.Graphs), len(st.Cmaps))
	}
	switch st.Phase {
	case checkpoint.PhaseCoarsen:
		if st.Level != len(st.Graphs) || st.Level < 1 {
			return fmt.Errorf("%w: coarsen level %d with %d graphs", checkpoint.ErrMismatch, st.Level, len(st.Graphs))
		}
	case checkpoint.PhaseUncoarsen:
		if st.Level != len(st.Graphs) {
			return fmt.Errorf("%w: uncoarsen level %d with %d live graphs", checkpoint.ErrMismatch, st.Level, len(st.Graphs))
		}
	}

	d := r.d
	dg, err := allocGraph(d, r.g)
	if err != nil {
		return fmt.Errorf("core: restore input graph: %w", err)
	}
	r.cur = dg
	for j, cg := range st.Graphs {
		if len(st.Cmaps[j]) != r.cur.g.NumVertices() {
			return fmt.Errorf("%w: level %d cmap length %d != %d vertices",
				checkpoint.ErrMismatch, j, len(st.Cmaps[j]), r.cur.g.NumVertices())
		}
		cmapArr, err := d.Malloc(len(st.Cmaps[j]), 4)
		if err != nil {
			return fmt.Errorf("core: restore level %d cmap: %w", j, err)
		}
		cdg, err := allocGraph(d, cg)
		if err != nil {
			return fmt.Errorf("core: restore level %d graph: %w", j, err)
		}
		r.levels = append(r.levels, gpuLevel{fine: r.cur, cmap: st.Cmaps[j], cmapArr: cmapArr, coarse: cdg})
		r.cur = cdg
	}

	switch st.Phase {
	case checkpoint.PhaseCPUDone, checkpoint.PhaseUncoarsen:
		if len(st.Part) != r.cur.g.NumVertices() {
			return fmt.Errorf("%w: partition length %d != %d vertices",
				checkpoint.ErrMismatch, len(st.Part), r.cur.g.NumVertices())
		}
		r.part = append([]int(nil), st.Part...)
		r.pl = st.Level
		if st.Phase == checkpoint.PhaseCPUDone {
			r.pl = len(r.levels)
		} else {
			// The interrupted run's current partition vector was live on
			// the device at the boundary.
			cpart, err := d.Malloc(len(r.part), 4)
			if err != nil {
				return fmt.Errorf("core: restore partition vector: %w", err)
			}
			r.cpart = cpart
		}
		r.res.GPULevels = st.GPULevels
		r.res.CPULevels = st.CPULevels
	}

	r.res.MatchConflicts = st.MatchConflicts
	r.res.MatchAttempts = st.MatchAttempts
	for _, ev := range st.Events {
		r.res.Events = append(r.res.Events, FaultEvent{
			Site: fault.Site(ev.Site), Action: ev.Action, Level: ev.Level,
			Seconds: ev.Seconds, Detail: ev.Detail,
		})
	}
	r.res.Timeline.Restore(st.Timeline, st.Clock)
	d.RestoreStats(st.Stats)
	r.o.Faults.RestoreCounters(st.Fault)
	return nil
}
