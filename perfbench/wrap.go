package main

import (
	"goat/internal/detect"
	"goat/internal/sim"
	"goat/internal/trace"
)

// meter accumulates the time spent inside a wrapped detector's calls
// and the events and batches they delivered, between resets.
type meter struct {
	tr              *tracer
	busy            int64
	first, last     int64
	calls           int64
	events, batches int64
}

func (m *meter) start() int64 { return m.tr.now() }

func (m *meter) stop(t0 int64, events, batches int) {
	t1 := m.tr.now()
	if m.calls == 0 {
		m.first = t0
	}
	m.last = t1
	m.busy += t1 - t0
	m.calls++
	m.events += int64(events)
	m.batches += int64(batches)
}

func (m *meter) reset() {
	m.busy, m.first, m.last, m.calls, m.events, m.batches = 0, 0, 0, 0, 0, 0
}

// wrapDetector times a detector's calls into m. The wrapper has the
// same optional sides as the detector it wraps, so the engine wires it
// exactly as it would the bare detector.
func wrapDetector(d detect.Detector, m *meter) detect.Detector {
	if _, ok := d.(detect.Streaming); ok {
		return timedStreaming{timedDetector{d, m}}
	}
	return timedDetector{d, m}
}

type timedDetector struct {
	inner detect.Detector
	m     *meter
}

func (d timedDetector) Name() string { return d.inner.Name() }

func (d timedDetector) Detect(r *sim.Result) detect.Detection {
	t0 := d.m.start()
	v := d.inner.Detect(r)
	d.m.stop(t0, 0, 0)
	return v
}

type timedStreaming struct{ timedDetector }

func (d timedStreaming) NewStream() detect.Stream {
	return wrapStream(d.inner.(detect.Streaming).NewStream(), d.m)
}

// wrapStream times a stream's callbacks into m. It keeps the stream's
// trace.BatchSink, trace.Stopper, detect.Resettable and
// trace.SourceAware sides: the runtime polls stoppers and the engine
// recycles resettable streams, so a wrapper that added or hid either
// would change the work being measured.
func wrapStream(s detect.Stream, m *meter) detect.Stream {
	base := &timedStream{inner: s, m: m}
	base.batch, _ = s.(trace.BatchSink)
	_, stops := s.(trace.Stopper)
	r, resets := s.(detect.Resettable)
	switch {
	case stops && resets:
		return &timedResettableStopper{timedResettable{base, r}}
	case stops:
		return &timedStopper{base}
	case resets:
		return &timedResettable{base, r}
	}
	return base
}

type timedStream struct {
	inner detect.Stream
	batch trace.BatchSink
	m     *meter
}

func (s *timedStream) Event(e trace.Event) {
	t0 := s.m.start()
	s.inner.Event(e)
	s.m.stop(t0, 1, 0)
}

func (s *timedStream) EventBatch(evs []trace.Event) {
	t0 := s.m.start()
	if s.batch != nil {
		s.batch.EventBatch(evs)
	} else {
		for i := range evs {
			s.inner.Event(evs[i])
		}
	}
	s.m.stop(t0, len(evs), 1)
}

func (s *timedStream) Close() {
	t0 := s.m.start()
	s.inner.Close()
	s.m.stop(t0, 0, 0)
}

func (s *timedStream) Finish(r *sim.Result) detect.Detection {
	t0 := s.m.start()
	d := s.inner.Finish(r)
	s.m.stop(t0, 0, 0)
	return d
}

// SetSource forwards the producer's declaration to a source-aware
// stream (a no-op for the others, which is what the runtime does too).
func (s *timedStream) SetSource(src trace.SourceInfo) {
	if sa, ok := s.inner.(trace.SourceAware); ok {
		sa.SetSource(src)
	}
}

type timedStopper struct{ *timedStream }

func (s *timedStopper) StopRequested() bool { return s.inner.(trace.Stopper).StopRequested() }

type timedResettable struct {
	*timedStream
	r detect.Resettable
}

func (s *timedResettable) Reset() {
	t0 := s.m.start()
	s.r.Reset()
	s.m.stop(t0, 0, 0)
}

type timedResettableStopper struct{ timedResettable }

func (s *timedResettableStopper) StopRequested() bool {
	return s.inner.(trace.Stopper).StopRequested()
}
