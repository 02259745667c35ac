package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"methodpart/internal/jecho"
	"methodpart/internal/mir"
	"methodpart/internal/partition"
	"methodpart/internal/transport"
)

const (
	// matchWindow is how far past its cursor a receiver looks for the
	// event an output belongs to. Events it skips count as undelivered.
	matchWindow = 32
	// attachTimeout bounds subscription registration and the first event.
	attachTimeout = 10 * time.Second
	// drainStall ends a drain that has made no progress for this long.
	drainStall = time.Second
	// drainLimit bounds a whole drain.
	drainLimit = 5 * time.Second
	// sendAhead is how far ahead of an event's due time the open-loop
	// generator wakes.
	sendAhead = time.Millisecond
	// probeRepeat is how long set-up waits for its probe event before it
	// publishes another.
	probeRepeat = 50 * time.Millisecond
	// pollEvery is how often the open loop reads the publisher's
	// per-subscription counters (see pollPub); the closed loop reads them
	// once a window.
	pollEvery = int64(50 * time.Millisecond)
)

// hit is one correctly handled event at one subscriber: the event index
// and the OnResult time in nanoseconds since the run's epoch.
type hit struct {
	event int
	at    int64
}

// receiver is the benchmark's side of one subscriber. The wrapped native
// sink stores the handler output's digest; OnResult, on the same
// goroutine, matches it to the next expected event.
type receiver struct {
	w     *workload
	seq   *sequence
	out   uint64
	have  bool
	next  int // index of the first event not yet matched or skipped
	hits  []hit
	wrong int // outputs that matched no event in the window
	// cursor publishes next; results counts OnResult calls.
	cursor, results atomic.Int64
	// first is closed by the first OnResult.
	first chan struct{}
}

func (r *receiver) sink(v mir.Value) {
	r.out, r.have = digest(v), true
}

func (r *receiver) onResult(*partition.Result) {
	at := int64(time.Since(r.seq.epoch))
	sent := int(r.seq.sent.Load())
	match := -1
	if r.have {
		for j := r.next; j < sent && j < r.next+matchWindow; j++ {
			if r.w.ref[r.w.poolIndex(j)] == r.out {
				match = j
				break
			}
		}
	}
	if match < 0 {
		r.wrong++
		r.next++
	} else {
		r.hits = append(r.hits, hit{event: match, at: at})
		r.next = match + 1
	}
	r.have = false
	r.cursor.Store(int64(r.next))
	if r.results.Add(1) == 1 {
		close(r.first)
	}
}

// sequence is the event schedule of one channel instance. Only the
// publishing goroutine appends; sent is read by receivers.
type sequence struct {
	epoch  time.Time
	sent   atomic.Int64
	sched  []int64 // due time of each event
	pubEnd []int64 // when Publish returned (traced instances only)
}

func (s *sequence) now() int64 { return int64(time.Since(s.epoch)) }

// failures counts lost deliveries by reason.
type failures struct {
	publishErrors int // deliveries Publish reported as failed
	firstErr      string
	unreached     int // deliveries Publish did not reach without an error
	// probeMisses are set-up probe deliveries Publish did not reach
	// without an error: the subscription was not attached yet. They are
	// not deliveries the channel owed, so attempted leaves them out, and
	// the report names them apart.
	probeMisses int
}

// finalCounters are an instance's channel counters at the end of its run.
type finalCounters struct {
	pub, sub jecho.ChannelMetrics
}

// instance is one live channel: a publisher and the workload's
// subscribers.
type instance struct {
	w    *workload
	tr   *tracer
	tt   *timedTransport
	pub  *jecho.Publisher
	subs []*jecho.Subscriber
	rx   []*receiver
	seq  *sequence
	fail failures
	// probing is set while start publishes its probe events.
	probing bool
	logs    atomic.Int64
	// final holds the counters read just before stop closed the channel.
	final *finalCounters
	// pubSeen is the last value of each subscription's publisher-side
	// counters; a retired subscription keeps its last reading. Only the
	// publishing goroutine touches it.
	pubSeen map[string]jecho.ChannelMetrics

	mu       sync.Mutex
	firstLog string
}

func (in *instance) logf(format string, args ...any) {
	if in.logs.Add(1) == 1 {
		in.mu.Lock()
		in.firstLog = fmt.Sprintf(format, args...)
		in.mu.Unlock()
	}
}

// start brings the channel up and returns once every subscriber has
// handled the first event. With tr set, the transport and the builtins
// are wrapped to record spans.
func start(w *workload, tr *tracer) (*instance, error) {
	in := &instance{w: w, tr: tr, seq: &sequence{epoch: time.Now()}, pubSeen: map[string]jecho.ChannelMetrics{}}
	var tp transport.Transport = transport.TCP{}
	addr := "127.0.0.1:0"
	if w.mem {
		tp, addr = transport.NewMem(), ""
	}
	if tr != nil {
		in.tt = &timedTransport{inner: tp, tr: tr}
		tp = in.tt
	}
	pubReg, _ := w.builtins()
	if tr != nil {
		pubReg = wrapBuiltins(pubReg, tr, nil, nil)
	}
	pub, err := jecho.NewPublisher(jecho.PublisherConfig{Addr: addr, Transport: tp, Builtins: pubReg, Logf: in.logf})
	if err != nil {
		return nil, err
	}
	in.pub = pub
	for i := 0; i < w.subs; i++ {
		rx := &receiver{w: w, seq: in.seq, first: make(chan struct{})}
		reg, reset := w.builtins()
		cfg := jecho.SubscriberConfig{
			Addr:      pub.Addr(),
			Transport: tp,
			Name:      fmt.Sprintf("sub-%d", i+1),
			Source:    w.source,
			Handler:   w.handler,
			CostModel: w.model,
			Natives:   w.natives,
			Builtins: wrapBuiltins(reg, tr, nil, func(v mir.Value) {
				rx.sink(v)
				reset()
			}),
			Environment: w.env,
			OnResult:    rx.onResult,
			Logf:        in.logf,
		}
		if w.reliable {
			cfg.Reliability = jecho.AtLeastOnce
		}
		sub, err := jecho.Subscribe(cfg)
		if err != nil {
			in.close()
			return nil, err
		}
		in.subs = append(in.subs, sub)
		in.rx = append(in.rx, rx)
	}
	// Subscribers() counts a subscription before it joins a plan class,
	// and Publish does not reach it until it has; Status() lists it only
	// once it has a class.
	deadline := time.Now().Add(attachTimeout)
	for pub.Subscribers() < w.subs || len(pub.Status().Channels) < w.subs {
		if time.Now().After(deadline) {
			in.stop()
			return nil, fmt.Errorf("%d of %d subscriptions registered", pub.Subscribers(), w.subs)
		}
		pause()
	}
	// Should the first event still miss a subscriber (counted as
	// setup_probe_unreached), probe again until every subscriber has
	// handled one.
	in.probing = true
	defer func() { in.probing = false }()
	in.publish(in.seq.now())
	for _, rx := range in.rx {
		for handled := false; !handled; {
			select {
			case <-rx.first:
				handled = true
			case <-time.After(probeRepeat):
				if time.Now().After(deadline) {
					in.stop()
					var r report
					in.addTo(&r)
					return nil, fmt.Errorf("first event was not handled (failures: %+v)", r)
				}
				in.publish(in.seq.now())
			}
		}
	}
	return in, nil
}

// pause sleeps for about 20 µs in the kernel. Registration takes
// microseconds, and time.Sleep wakes about a millisecond late, while
// spinning with runtime.Gosched can keep both processors busy and delay
// the network poller by milliseconds.
func pause() {
	ts := syscall.Timespec{Nsec: 20_000}
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up only shortens the pause
}

// stop records the final counters, then stops the channel and waits until
// every subscriber's receive loop has ended, after which the receivers'
// records are safe to read.
func (in *instance) stop() {
	if in.pub != nil && in.final == nil {
		pm, _ := in.pubTotals()
		sm, _ := in.subTotals()
		in.final = &finalCounters{pub: pm, sub: sm}
	}
	in.close()
}

func (in *instance) close() {
	for _, s := range in.subs {
		_ = s.Close() // teardown; the run's failures are already counted
		<-s.Done()
	}
	if in.pub != nil {
		_ = in.pub.Close()
	}
}

// publish sends the next event; its latency counts from the given time.
func (in *instance) publish(due int64) {
	j := len(in.seq.sched)
	in.seq.sched = append(in.seq.sched, due)
	in.seq.sent.Store(int64(j + 1))
	ev := in.w.pool[in.w.poolIndex(j)]
	var n int
	var err error
	if in.tr != nil {
		o := in.tr.begin("jecho.publish", int64(j), nil)
		n, err = in.pub.Publish(ev)
		in.tr.end(o)
		in.seq.pubEnd = append(in.seq.pubEnd, in.seq.now())
	} else {
		n, err = in.pub.Publish(ev)
	}
	if n < in.w.subs {
		if err != nil {
			in.fail.publishErrors += in.w.subs - n
			if in.fail.firstErr == "" {
				in.fail.firstErr = err.Error()
			}
		} else if in.probing {
			in.fail.probeMisses += in.w.subs - n
		} else {
			in.fail.unreached += in.w.subs - n
		}
	}
}

// openLoop publishes at the workload's rate for d, each event due at a
// fixed time whether or not earlier ones are done, and returns the range
// of events sent and how late each send was (ns). Go timers wake about a
// millisecond late, so the generator sleeps until sendAhead before an
// event is due and sends what falls due in between at once. An event is
// timed from when it was due or, if it went out early, from when it was
// sent: lateness counts against the system, earliness is not credited.
func (in *instance) openLoop(d time.Duration, onPhaseEnd func(last int)) (first, end int, lags []int64) {
	period := float64(time.Second) / in.w.rate
	n := int(d.Seconds() * in.w.rate)
	first = len(in.seq.sched)
	lags = make([]int64, 0, n)
	t0 := in.seq.now()
	poll := t0 + pollEvery
	for k := 0; k < n; k++ {
		due := t0 + int64(float64(k)*period)
		if wait := due - in.seq.now() - int64(sendAhead); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		now := in.seq.now()
		if now >= poll {
			in.pollPub()
			poll = now + pollEvery
		}
		lags = append(lags, max(now-due, 0))
		in.publish(min(now, due))
		if j := first + k; onPhaseEnd != nil && in.w.phase > 0 && (j+1)%in.w.phase == 0 {
			onPhaseEnd(j)
		}
	}
	return first, first + n, lags
}

// closedLoop publishes back to back for d, Publish blocking on full
// queues, and returns, for each window after the first, the events
// handled per second and the process CPU time per event handled (µs).
func (in *instance) closedLoop(d, window time.Duration) (rates, cpuUS []float64) {
	t0 := in.seq.now()
	stop := t0 + int64(d)
	edge, last, lastDone, lastCPU := t0+int64(window), t0, in.handled(), cpuTime()
	for now := t0; now < stop; now = in.seq.now() {
		in.publish(now)
		if now < edge {
			continue
		}
		in.pollPub()
		done, cpu := in.handled(), cpuTime()
		if last != t0 && done > lastDone {
			rates = append(rates, float64(done-lastDone)/time.Duration(now-last).Seconds())
			cpuUS = append(cpuUS, float64((cpu-lastCPU).Nanoseconds())/1e3/float64(done-lastDone))
		}
		last, lastDone, lastCPU, edge = now, done, cpu, now+int64(window)
	}
	return rates, cpuUS
}

// handled counts the events handled: the most OnResult calls of any one
// subscriber, so that a subscription retired mid-run does not halve it.
func (in *instance) handled() int64 {
	var n int64
	for _, rx := range in.rx {
		n = max(n, rx.results.Load())
	}
	return n
}

// drain waits until every receiver has accounted for every sent event, or
// until progress stalls. It reports whether all were accounted for.
func (in *instance) drain() bool {
	want := in.seq.sent.Load()
	limit := time.Now().Add(drainLimit)
	stallAt := time.Now().Add(drainStall)
	var last int64 = -1
	for {
		var sum int64
		all := true
		for _, rx := range in.rx {
			c := rx.cursor.Load()
			sum += c
			all = all && c >= want
		}
		if all {
			return true
		}
		now := time.Now()
		if sum != last {
			last, stallAt = sum, now.Add(drainStall)
		}
		if now.After(limit) || now.After(stallAt) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// pollPub reads the publisher-side counters of the live subscriptions.
// Publisher.Subscriptions leaves retired ones out, so their last reading
// is kept: sums over pubSeen never go down, and a retired subscription's
// drops still count.
func (in *instance) pollPub() {
	for _, s := range in.pub.Subscriptions() {
		in.pubSeen[s.ID] = s.Metrics
	}
}

// pubTotals sums the publisher-side counters over every subscription seen.
func (in *instance) pubTotals() (m jecho.ChannelMetrics, queueHW uint64) {
	in.pollPub()
	for _, s := range in.pubSeen {
		m.BytesOnWire += s.BytesOnWire
		m.Dropped += s.Dropped
		m.AcksReceived += s.AcksReceived
		m.DataLoss += s.DataLoss
		queueHW = max(queueHW, s.QueueHighWater)
	}
	return m, queueHW
}

// subTotals sums the subscriber-side counters, with the plan selections
// the reconfiguration units have made.
func (in *instance) subTotals() (m jecho.ChannelMetrics, selections uint64) {
	for _, s := range in.subs {
		sm := s.Metrics()
		m.PlanFlips += sm.PlanFlips
		m.DataLoss += sm.DataLoss
		m.DeadLettered += sm.DeadLettered
		m.DemodFailures += sm.DemodFailures
		m.DecodeFailures += sm.DecodeFailures
		for _, ch := range s.Status().Channels {
			if ch.LastMinCut != nil {
				selections += ch.LastMinCut.Version
			}
		}
	}
	return m, selections
}

// outcome is the delivery accounting of a set of events at every
// subscriber.
type outcome struct {
	attempted int // (event, subscriber) deliveries
	correct   int
	wrong     int
}

func (o outcome) failed() int { return o.attempted - o.correct }

func (o *outcome) add(p outcome) {
	o.attempted += p.attempted
	o.correct += p.correct
	o.wrong += p.wrong
}

// tally counts the deliveries of every event sent on the instance. Call
// after close.
func (in *instance) tally() outcome {
	o := outcome{attempted: len(in.seq.sched)*in.w.subs - in.fail.probeMisses}
	for _, rx := range in.rx {
		o.correct += len(rx.hits)
		o.wrong += rx.wrong
	}
	return o
}

// report is the failure account of one or more stopped instances: each
// reason's count and the first message of each kind seen.
type report struct {
	Counts   map[string]int64 `json:"counts"`
	Messages []string         `json:"messages,omitempty"`
}

// addTo adds this instance's failures to r.
func (in *instance) addTo(r *report) {
	if r.Counts == nil {
		r.Counts = map[string]int64{}
	}
	pm, sm := in.final.pub, in.final.sub
	o := in.tally()
	for k, v := range map[string]int64{
		"publish_error":         int64(in.fail.publishErrors),
		"not_reached":           int64(in.fail.unreached),
		"setup_probe_unreached": int64(in.fail.probeMisses),
		"dropped":               int64(pm.Dropped),
		"data_loss":             int64(sm.DataLoss),
		"dead_letter":           int64(sm.DeadLettered),
		"demod_failure":         int64(sm.DemodFailures),
		"decode_failure":        int64(sm.DecodeFailures),
		"wrong_output":          int64(o.wrong),
		"undelivered":           int64(o.failed() - o.wrong),
		"log_lines":             in.logs.Load(),
	} {
		r.Counts[k] += v
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, m := range []string{in.fail.firstErr, in.firstLog} {
		if m != "" && len(r.Messages) < 4 {
			r.Messages = append(r.Messages, m)
		}
	}
}

// latencies returns the latency in ms of every delivery of the events in
// [first, end): the time from when the event was due (see openLoop) to
// OnResult. A delivery that never happened counts as missing every limit:
// it gets missingMS.
func (in *instance) latencies(first, end int) []float64 {
	var lat []float64
	for _, rx := range in.rx {
		got := 0
		for _, h := range rx.hits {
			if h.event >= first && h.event < end {
				got++
				lat = append(lat, float64(h.at-in.seq.sched[h.event])/1e6)
			}
		}
		for ; got < end-first; got++ {
			lat = append(lat, missingMS)
		}
	}
	return lat
}
