package resilience

import (
	"context"
	"errors"
	"testing"
	"time"
)

var errBoom = errors.New("boom")

// step is one scripted breaker interaction for the table-driven
// transition test.
type step struct {
	// advance moves the virtual clock before acting.
	advance time.Duration
	// fail is the outcome to record if the call is admitted.
	fail bool
	// wantAllow is whether Allow must admit the call.
	wantAllow bool
	// wantState is the state after the step.
	wantState BreakerState
}

// TestBreakerTransitions walks the full closed -> open -> half-open ->
// closed cycle, including a failed probe reopening the breaker.
func TestBreakerTransitions(t *testing.T) {
	tests := []struct {
		name  string
		cfg   BreakerConfig
		steps []step
	}{
		{
			name: "trip after threshold, recover via probe",
			cfg:  BreakerConfig{FailureThreshold: 3, Cooldown: 100 * time.Millisecond},
			steps: []step{
				{fail: true, wantAllow: true, wantState: Closed},
				{fail: true, wantAllow: true, wantState: Closed},
				{fail: true, wantAllow: true, wantState: Open}, // third consecutive failure trips
				{wantAllow: false, wantState: Open},            // shed while cooling down
				{advance: 99 * time.Millisecond, wantAllow: false, wantState: Open},
				{advance: time.Millisecond, fail: false, wantAllow: true, wantState: Closed}, // probe succeeds
				{fail: false, wantAllow: true, wantState: Closed},
			},
		},
		{
			name: "failed probe reopens",
			cfg:  BreakerConfig{FailureThreshold: 1, Cooldown: 50 * time.Millisecond},
			steps: []step{
				{fail: true, wantAllow: true, wantState: Open},
				{advance: 50 * time.Millisecond, fail: true, wantAllow: true, wantState: Open}, // probe fails
				{wantAllow: false, wantState: Open},
				{advance: 50 * time.Millisecond, fail: false, wantAllow: true, wantState: Closed},
			},
		},
		{
			name: "success resets the consecutive-failure count",
			cfg:  BreakerConfig{FailureThreshold: 2, Cooldown: time.Second},
			steps: []step{
				{fail: true, wantAllow: true, wantState: Closed},
				{fail: false, wantAllow: true, wantState: Closed},
				{fail: true, wantAllow: true, wantState: Closed}, // count restarted
				{fail: true, wantAllow: true, wantState: Open},
			},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			clock := NewVirtualClock(time.Unix(0, 0))
			b := NewBreaker(tc.cfg, clock)
			for i, s := range tc.steps {
				if s.advance > 0 {
					if err := clock.Sleep(context.Background(), s.advance); err != nil {
						t.Fatal(err)
					}
				}
				err := b.Allow()
				if admitted := err == nil; admitted != s.wantAllow {
					t.Fatalf("step %d: Allow() admitted=%v, want %v (err %v)", i, admitted, s.wantAllow, err)
				}
				if err == nil {
					if s.fail {
						b.Record(errBoom)
					} else {
						b.Record(nil)
					}
				} else if !errors.Is(err, ErrOpen) {
					t.Fatalf("step %d: Allow() = %v, want ErrOpen", i, err)
				}
				if got := b.State(); got != s.wantState {
					t.Fatalf("step %d: state = %s, want %s", i, got, s.wantState)
				}
			}
		})
	}
}

// TestBreakerStats checks the trip/recovery/shed counters over a full
// cycle with one failed probe.
func TestBreakerStats(t *testing.T) {
	clock := NewVirtualClock(time.Unix(0, 0))
	b := NewBreaker(BreakerConfig{FailureThreshold: 2, Cooldown: 10 * time.Millisecond}, clock)
	ctx := context.Background()

	b.Allow()
	b.Record(errBoom)
	b.Allow()
	b.Record(errBoom) // trip 1
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("expected shed, got %v", err)
	}
	clock.Sleep(ctx, 10*time.Millisecond)
	b.Allow()
	b.Record(errBoom) // probe fails: trip 2
	clock.Sleep(ctx, 10*time.Millisecond)
	b.Allow()
	b.Record(nil) // probe succeeds: recovery

	st := b.Stats()
	if st.Trips != 2 || st.Recoveries != 1 || st.Shed != 1 {
		t.Errorf("stats = %+v, want {Trips:2 Recoveries:1 Shed:1}", st)
	}
	if b.State() != Closed {
		t.Errorf("state = %s, want closed", b.State())
	}
}

// TestBreakerHalfOpenProbeQuota: only HalfOpenProbes calls are admitted
// while a probe is in flight.
func TestBreakerHalfOpenProbeQuota(t *testing.T) {
	clock := NewVirtualClock(time.Unix(0, 0))
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, Cooldown: time.Millisecond, HalfOpenProbes: 1}, clock)
	b.Allow()
	b.Record(errBoom)
	clock.Sleep(context.Background(), time.Millisecond)
	if err := b.Allow(); err != nil {
		t.Fatalf("first probe rejected: %v", err)
	}
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("second concurrent probe admitted, want ErrOpen (got %v)", err)
	}
	b.Record(nil)
	if b.State() != Closed {
		t.Errorf("state after successful probe = %s, want closed", b.State())
	}
}
