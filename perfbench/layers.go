package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"methodpart/internal/costmodel"
	"methodpart/internal/mir"
	"methodpart/internal/mir/interp"
	"methodpart/internal/partition"
	"methodpart/internal/profileunit"
	"methodpart/internal/reconfig"
	"methodpart/internal/wire"
)

const (
	// directMaxEvents caps the direct-call loop.
	directMaxEvents = 20000
	// mergeRounds and selectRounds are the profileunit.Merge and
	// Unit.SelectPlan calls the traced run times.
	mergeRounds  = 200
	selectRounds = 50
	// allocRounds is how often the allocation count re-encodes each
	// collected message.
	allocRounds = 20
)

// directStats are the per-layer figures of the direct calls.
type directStats struct {
	layers       map[string]layerStat
	events       int     // events taken through modulate, wire and demodulate
	builtinNS    float64 // time in application builtins, both halves
	interpSelfNS float64 // modulate plus demodulate self time
	shippedBytes float64 // bytes the modulator shipped (continuation or raw event)
	wireAllocs   float64 // allocations per marshal+unmarshal round trip
	outcome
	failures map[string]int // failed calls by layer
}

// directLayers calls each layer on pool events for up to budget: the
// modulator under the plan the live channel used for the event's kind,
// marshal, unmarshal and the demodulator, each a span whose builtin calls
// are child spans. It then times profileunit.Merge on the two collectors
// this fills and Unit.SelectPlan on the live subscriber's statistics.
func directLayers(w *workload, c *partition.Compiled, plans map[int][]int32, live map[int32]costmodel.Stat, tr *tracer, budget time.Duration) (*directStats, error) {
	var cur *open
	parent := func() *open { return cur }
	sendReg, _ := w.builtins()
	recvReg, reset := w.builtins()
	var out uint64
	var seen bool
	sendEnv := interp.NewEnv(c.Classes, wrapBuiltins(sendReg, tr, parent, nil))
	recvEnv := interp.NewEnv(c.Classes, wrapBuiltins(recvReg, tr, parent, func(v mir.Value) {
		out, seen = digest(v), true
		reset()
	}))
	sendColl := profileunit.NewCollector(c.NumPSEs())
	recvColl := profileunit.NewCollector(c.NumPSEs())
	demod := partition.NewDemodulator(c, recvEnv)
	demod.Probe, demod.CrossProbe = recvColl, recvColl
	mods := make([]*partition.Modulator, len(w.kinds))
	for k := range mods {
		split, ok := plans[k]
		if !ok {
			return nil, fmt.Errorf("no plan observed for event kind %d", k)
		}
		plan, err := partition.NewPlan(c.NumPSEs(), 1, split, split)
		if err != nil {
			return nil, err
		}
		mods[k] = partition.NewModulator(c, sendEnv)
		mods[k].Probe = sendColl
		mods[k].SetPlan(plan)
	}

	d := &directStats{failures: map[string]int{}}
	failures := d.failures
	var msgs []any
	stop := time.Now().Add(budget)
	for i := 0; i < directMaxEvents && time.Now().Before(stop); i++ {
		d.attempted++
		ev := w.pool[w.poolIndex(i)]
		cur = tr.begin("partition.modulate", int64(i), nil)
		mo, err := mods[w.kindOf(i)].Process(ev)
		tr.end(cur)
		cur = nil
		if err != nil {
			failures["modulate"]++
			continue
		}
		if mo.Suppressed {
			failures["suppressed"]++
			continue
		}
		var msg any = mo.Raw
		if mo.Cont != nil {
			msg = mo.Cont
		}
		d.shippedBytes += float64(mo.WireBytes)
		o := tr.begin("wire.marshal", int64(i), nil)
		b, err := wire.Marshal(msg)
		tr.end(o)
		if err != nil {
			failures["marshal"]++
			continue
		}
		o = tr.begin("wire.unmarshal", int64(i), nil)
		back, err := wire.Unmarshal(b)
		tr.end(o)
		if err != nil {
			failures["unmarshal"]++
			continue
		}
		if len(msgs) < poolPerKind {
			msgs = append(msgs, msg)
		}
		seen = false
		cur = tr.begin("partition.demodulate", int64(i), nil)
		_, err = demod.Process(back)
		tr.end(cur)
		cur = nil
		switch {
		case err != nil:
			failures["demodulate"]++
			continue
		case !seen || out != w.ref[w.poolIndex(i)]:
			d.wrong++
		default:
			d.correct++
		}
		d.events++
	}

	sender, receiver := sendColl.Snapshot(), recvColl.Snapshot()
	for k := 0; k < mergeRounds; k++ {
		o := tr.begin("profileunit.merge", -1, nil)
		profileunit.Merge(sender, receiver)
		tr.end(o)
	}
	unit := reconfig.NewUnit(c, w.env)
	for k := 0; k < selectRounds; k++ {
		o := tr.begin("reconfig.select", -1, nil)
		_, _, err := unit.SelectPlan(live)
		tr.end(o)
		if err != nil {
			return nil, fmt.Errorf("select plan: %w", err)
		}
	}
	d.layers = tr.takeLayers()
	for name, st := range d.layers {
		if strings.HasPrefix(name, "handler.") {
			d.builtinNS += float64(st.totalNS)
		}
	}
	d.interpSelfNS = float64(d.layers["partition.modulate"].selfNS + d.layers["partition.demodulate"].selfNS)
	d.wireAllocs = wireAllocs(msgs)
	return d, nil
}

// wireAllocs counts heap allocations per marshal+unmarshal round trip of
// msgs. Nothing else runs in the process at this point.
func wireAllocs(msgs []any) float64 {
	if len(msgs) == 0 {
		return 0
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < allocRounds; r++ {
		for _, m := range msgs {
			b, err := wire.Marshal(m)
			if err == nil {
				_, _ = wire.Unmarshal(b) // each message decoded in the timed loop
			}
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(allocRounds*len(msgs))
}
