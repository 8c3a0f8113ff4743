package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// probe is the engine's transport seam (core.Probe) as the benchmark sees
// it: the four methods every probe has.
type probe interface {
	SetRate(mbps float64) error
	NextSample() (mbps float64, ok bool)
	Elapsed() time.Duration
	DataMB() float64
}

// probeTimes is what a timedProbe saw of one test.
type probeTimes struct {
	setRate     time.Duration // all SetRate calls
	nextSample  time.Duration // all NextSample calls
	handshake   time.Duration // the first SetRate, which opens the session
	firstSample time.Duration // first SetRate entered -> first non-zero sample returned
}

// timedProbe decorates a probe with a clock read on either side of the two
// calls that do work, so that of an engine run's span the part spent below
// the seam is known and the rest is the engine's own. It forwards the
// optional RTT and server-health methods, because the engine's result
// depends on whether its probe has them.
type timedProbe struct {
	inner probe
	times probeTimes
	begun time.Time
}

func (p *timedProbe) SetRate(mbps float64) error {
	t0 := time.Now()
	err := p.inner.SetRate(mbps)
	d := time.Since(t0)
	if p.begun.IsZero() {
		p.begun = t0
		p.times.handshake = d
	}
	p.times.setRate += d
	return err
}

func (p *timedProbe) NextSample() (float64, bool) {
	t0 := time.Now()
	s, ok := p.inner.NextSample()
	t1 := time.Now()
	p.times.nextSample += t1.Sub(t0)
	if ok && s > 0 && p.times.firstSample == 0 {
		p.times.firstSample = t1.Sub(p.begun)
	}
	return s, ok
}

func (p *timedProbe) Elapsed() time.Duration { return p.inner.Elapsed() }

func (p *timedProbe) DataMB() float64 { return p.inner.DataMB() }

// SampleRTT forwards core.RTTSampler; a probe without one has no
// observation, which is what the engine sees without the method.
func (p *timedProbe) SampleRTT() (time.Duration, bool) {
	if r, ok := p.inner.(interface {
		SampleRTT() (time.Duration, bool)
	}); ok {
		return r.SampleRTT()
	}
	return 0, false
}

// ServersUsed and ServersLost forward core.ServerHealth; zero is what the
// engine reports for a probe without it.
func (p *timedProbe) ServersUsed() int {
	if h, ok := p.inner.(interface{ ServersUsed() int }); ok {
		return h.ServersUsed()
	}
	return 0
}

func (p *timedProbe) ServersLost() int {
	if h, ok := p.inner.(interface{ ServersLost() int }); ok {
		return h.ServersLost()
	}
	return 0
}

// span is one timed call across a layer boundary. Spans of one operation
// (a test, a batch) share ID; Parent names the span that caused this one.
// A span whose Name ends in "(sum)" totals many calls of one kind inside
// its parent, so has a duration and no start of its own.
type span struct {
	ID      uint64 `json:"id"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// maxSpans bounds the log: sim-static finishes tens of thousands of tests a
// second, and the first of them tell what the rest would.
const maxSpans = 50000

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

func (l *spanLog) add(id uint64, name, parent string, start time.Time, dur time.Duration) {
	if l == nil || len(l.spans) >= maxSpans {
		return
	}
	l.spans = append(l.spans, span{ID: id, Name: name, Parent: parent, StartNS: start.Sub(l.origin).Nanoseconds(), DurNS: dur.Nanoseconds()})
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			return fmt.Errorf("span log: %w", err)
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span log: %w", err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("span log: %w", err)
	}
	return nil
}
