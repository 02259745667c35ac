package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"methodpart/internal/costmodel"
	"methodpart/internal/partition"
)

const (
	// setupRounds is how many times a run sets the channel up; setup_s is
	// the median.
	setupRounds = 1000
	// openChannels is how many channels, set up one after another, share
	// the open loop of a workload without a closed loop. Whether two
	// subscribers share a plan class is settled per channel and moves the
	// CPU cost per event; more channels per run average it.
	openChannels = 8
	// compileRounds is how many times the traced run compiles the handler.
	compileRounds = 20
	// capacityWindow is the length of one closed-loop throughput sample.
	capacityWindow = 500 * time.Millisecond
)

// openStats are the counters around one open-loop phase, read before it
// starts and after its drain.
type openStats struct {
	first, end int // events of the phase
	lags       []int64
	cpu        time.Duration
	mallocs    uint64
	wireBytes  uint64
	acks       uint64
	modRuns    uint64
	flips      uint64
	selections uint64
	queueHW    uint64
}

// measureOpen runs an open-loop phase of length d and drains it.
func measureOpen(in *instance, d time.Duration, onPhaseEnd func(int)) openStats {
	pm0, _ := in.pubTotals()
	sm0, sel0 := in.subTotals()
	mod0 := in.pub.ModulatorRuns()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	first, end, lags := in.openLoop(d, onPhaseEnd)
	in.drain()
	cpu1 := cpuTime()
	runtime.ReadMemStats(&ms1)
	pm1, hw := in.pubTotals()
	sm1, sel1 := in.subTotals()
	return openStats{
		first: first, end: end, lags: lags,
		cpu:        cpu1 - cpu0,
		mallocs:    ms1.Mallocs - ms0.Mallocs,
		wireBytes:  pm1.BytesOnWire - pm0.BytesOnWire,
		acks:       pm1.AcksReceived - pm0.AcksReceived,
		modRuns:    in.pub.ModulatorRuns() - mod0,
		flips:      sm1.PlanFlips - sm0.PlanFlips,
		selections: sel1 - sel0,
		queueHW:    hw,
	}
}

// delivered counts correct deliveries of the events in [first, end), and
// the most of them any one subscriber handled: the events handled, which a
// subscription retired mid-run does not halve. Call after stop.
func (in *instance) delivered(first, end int) (deliveries, events int) {
	for _, rx := range in.rx {
		n := 0
		for _, h := range rx.hits {
			if h.event >= first && h.event < end {
				n++
			}
		}
		deliveries, events = deliveries+n, max(events, n)
	}
	return deliveries, events
}

// missingMS is the latency a lost delivery counts with: longer than any
// phase plus its drain.
const missingMS = 1e6

// openPart is one channel's measured open loop. Its receivers' records
// are read once the channel has stopped.
type openPart struct {
	in *instance
	op openStats
}

// endToEnd is the untraced run: set-up, an open-loop phase at the
// workload's rate, and a closed-loop capacity phase. A reliable workload
// has no closed loop (see closedLoopOK): it runs the open loop for that
// time too, split over openChannels channels set up one after another.
func endToEnd(w *workload, length time.Duration) (*result, error) {
	warm, open, closed := length/10, length*45/100, length*45/100
	channels := 1
	if !w.closedLoopOK() {
		channels = openChannels
		warm, open, closed = warm/openChannels, (open+closed)/openChannels, 0
	}
	res := &result{}
	finish := func(i *instance) {
		i.stop()
		res.out.add(i.tally())
		i.addTo(&res.failures)
	}
	var setups []float64
	var in *instance
	for k := 0; k < setupRounds; k++ {
		t0 := time.Now()
		i, err := start(w, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k+1 == setupRounds {
			in = i
			break
		}
		// A later probe can still be in flight to a subscriber that
		// handled an earlier one; closing now would lose it.
		i.drain()
		finish(i)
	}
	var parts []openPart
	for k := 0; k < channels; k++ {
		if k > 0 {
			finish(in)
			var err error
			if in, err = start(w, nil); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
		}
		in.openLoop(warm, nil)
		in.drain()
		parts = append(parts, openPart{in: in, op: measureOpen(in, open, nil)})
	}
	var rates, closedCPU []float64
	if closed > 0 {
		rates, closedCPU = in.closedLoop(closed, capacityWindow)
		in.drain()
	}
	finish(in)

	var openCPU time.Duration
	var mallocs, wireBytes, modRuns uint64
	var deliveries, handled, sent int
	var lat []float64
	var lags []int64
	for _, p := range parts {
		d, e := p.in.delivered(p.op.first, p.op.end)
		deliveries, handled, sent = deliveries+d, handled+e, sent+p.op.end-p.op.first
		openCPU += p.op.cpu
		mallocs += p.op.mallocs
		wireBytes += p.op.wireBytes
		modRuns += p.op.modRuns
		lat = append(lat, p.in.latencies(p.op.first, p.op.end)...)
		lags = append(lags, p.op.lags...)
	}
	if deliveries == 0 || (closed > 0 && len(closedCPU) == 0) {
		return nil, fmt.Errorf("no event handled (failures: %+v)", res.failures)
	}
	events := float64(handled)
	openUS := float64(openCPU.Nanoseconds()) / 1e3 / events
	cpu := openUS
	if closed > 0 {
		cpu = median(closedCPU)
	}
	res.add("setup_s", median(setups), "s")
	res.add("cpu_us_per_event", cpu, "us")
	res.add("allocs_per_event", float64(mallocs)/events, "count")
	res.add("wire_bytes_per_event", float64(wireBytes)/float64(deliveries), "bytes")
	res.add("delivered_ratio", float64(res.out.correct)/float64(res.out.attempted), "ratio")
	res.note("error_ratio", float64(res.out.failed())/float64(res.out.attempted), "ratio")
	res.note("open_loop_cpu_us_per_event", openUS, "us")
	res.note("latency_p50_ms", median(lat), "ms")
	res.note("latency_p99_ms", quantile(lat, 0.99), "ms")
	res.note("latency_samples", float64(len(lat)), "count")
	if closed > 0 {
		res.note("capacity_eps", median(rates), "events/s")
		res.note("capacity_windows", float64(len(rates)), "count")
	}
	res.note("generator_lag_p99_ms", lagP99(lags), "ms")
	res.note("modulations_per_event", float64(modRuns)/float64(sent), "count")
	return res, nil
}

func lagP99(lags []int64) float64 {
	xs := make([]float64, len(lags))
	for i, l := range lags {
		xs[i] = float64(l) / 1e6
	}
	return quantile(xs, 0.99)
}

// tracedRun gives the per-layer metrics: handler compiles, an untraced
// open-loop phase, the same phase on a channel whose transport and
// builtins record spans, and direct calls into each layer under the plans
// that channel converged to. Spans are written to a file at the end.
func tracedRun(w *workload, length time.Duration, env runEnv) (*result, error) {
	warm, open, direct := length/10, length*3/10, length/5
	tr := newTracer()

	prog, classes, oracle, err := w.parse()
	if err != nil {
		return nil, err
	}
	for k := 0; k < compileRounds; k++ {
		model, err := costmodel.ByName(w.model)
		if err != nil {
			return nil, err
		}
		o := tr.begin("partition.compile", -1, nil)
		_, err = partition.Compile(prog, classes, oracle, model)
		tr.end(o)
		if err != nil {
			return nil, err
		}
	}
	compileLayers := tr.takeLayers()

	// The untraced phase is the baseline of the tracing overhead.
	a, err := start(w, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	a.openLoop(warm, nil)
	a.drain()
	opA := measureOpen(a, open, nil)
	a.stop()

	b, err := start(w, tr)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	b.openLoop(warm, nil)
	b.drain()
	tr.takeLayers()
	plans := map[int][]int32{}
	samplePlan := func(last int) {
		if subs := b.pub.Subscriptions(); len(subs) > 0 {
			plans[w.kindOf(last)] = subs[0].SplitIDs
		}
	}
	ctl0 := b.tt.controlFrames.Load()
	opB := measureOpen(b, open, samplePlan)
	control := b.tt.controlFrames.Load() - ctl0
	if _, ok := plans[w.kindOf(opB.end-1)]; !ok {
		samplePlan(opB.end - 1)
	}
	stats := b.subs[0].Stats()
	compiled := b.subs[0].Compiled()
	live := tr.takeLayers()
	b.stop()

	d, err := directLayers(w, compiled, plans, stats, tr, direct)
	if err != nil {
		return nil, err
	}

	res := &result{}
	for _, in := range []*instance{a, b} {
		res.out.add(in.tally())
		in.addTo(&res.failures)
	}
	res.out.add(d.outcome)
	for k, v := range d.failures {
		res.failures.Counts["direct_"+k] += int64(v)
	}

	_, eventsA := a.delivered(opA.first, opA.end)
	_, eventsB := b.delivered(opB.first, opB.end)
	if eventsA == 0 || eventsB == 0 || d.events == 0 {
		return nil, fmt.Errorf("no event handled (failures: %+v)", res.failures)
	}
	cpuA := float64(opA.cpu.Nanoseconds()) / 1e3 / float64(eventsA)
	cpuB := float64(opB.cpu.Nanoseconds()) / 1e3 / float64(eventsB)
	sent := float64(opB.end - opB.first)
	deliveriesB := sent * float64(w.subs)

	var queueWireNS float64
	var queueWireN int
	for _, rx := range b.rx {
		for _, h := range rx.hits {
			if h.event >= opB.first && h.event < opB.end {
				queueWireNS += float64(h.at - b.seq.pubEnd[h.event])
				queueWireN++
			}
		}
	}
	demodUS := d.layers["partition.demodulate"].meanUS()

	res.add("partition.compile_ms", compileLayers["partition.compile"].meanUS()/1e3, "ms")
	res.add("partition.modulate_us", d.layers["partition.modulate"].meanUS(), "us")
	res.add("partition.demodulate_us", demodUS, "us")
	res.add("handler.builtin_us", d.builtinNS/1e3/float64(d.events), "us")
	res.add("interp.self_us", d.interpSelfNS/1e3/float64(d.events), "us")
	res.add("partition.cont_bytes", d.shippedBytes/float64(d.events), "bytes")
	res.add("wire.marshal_us", d.layers["wire.marshal"].meanUS(), "us")
	res.add("wire.unmarshal_us", d.layers["wire.unmarshal"].meanUS(), "us")
	res.add("wire.allocs_per_msg", d.wireAllocs, "count")
	res.add("transport.write_us", live["transport.write"].meanUS(), "us")
	res.add("transport.read_wait_us", live["transport.read_wait"].meanUS(), "us")
	res.add("transport.frames_per_event", float64(live["transport.write"].count)/deliveriesB, "count")
	res.add("transport.control_frames_per_event", float64(control)/deliveriesB, "count")
	res.add("jecho.publish_us", live["jecho.publish"].meanUS(), "us")
	res.add("jecho.queue_wire_us", queueWireNS/1e3/float64(max(queueWireN, 1))-demodUS, "us")
	res.add("jecho.queue_high_water", float64(opB.queueHW), "count")
	res.add("jecho.modulations_per_event", float64(opB.modRuns)/sent, "count")
	res.add("jecho.acks_per_event", float64(opB.acks)/deliveriesB, "count")
	res.add("profileunit.merge_us", d.layers["profileunit.merge"].meanUS(), "us")
	res.add("reconfig.select_us", d.layers["reconfig.select"].meanUS(), "us")
	res.add("reconfig.selections_per_1k_events", float64(opB.selections)/deliveriesB*1e3, "count")
	res.add("reconfig.flips", float64(opB.flips), "count")
	res.add("bench.generator_lag_p99_ms", lagP99(opA.lags), "ms")
	latA := a.latencies(opA.first, opA.end)
	res.add("bench.latency_p50_ms", median(latA), "ms")
	res.add("bench.latency_p99_ms", quantile(latA, 0.99), "ms")
	res.add("bench.trace_overhead_pct", (cpuB-cpuA)/cpuA*100, "%")
	res.note("untraced_cpu_us_per_event", cpuA, "us")
	res.note("traced_cpu_us_per_event", cpuB, "us")
	res.note("direct_events", float64(d.events), "count")
	if w.phase > 0 {
		res.note("phase_changes", float64(phaseChanges(w, opB.first, opB.end)), "count")
	}

	path := filepath.Join(".bench_build", "traces", fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, env.Seed))
	if err := tr.write(path, env); err != nil {
		return nil, err
	}
	fmt.Printf("trace %s\n", path)
	return res, nil
}

// phaseChanges counts the size switches among events [first, end).
func phaseChanges(w *workload, first, end int) int {
	n := 0
	for j := first + 1; j < end; j++ {
		if w.kindOf(j) != w.kindOf(j-1) {
			n++
		}
	}
	return n
}
