package sim

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeConversions(t *testing.T) {
	tests := []struct {
		name string
		in   Time
		sec  float64
	}{
		{"zero", 0, 0},
		{"one second", Second, 1},
		{"half second", 500 * Millisecond, 0.5},
		{"negative", -2 * Second, -2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.in.Seconds(); got != tt.sec {
				t.Errorf("Seconds() = %v, want %v", got, tt.sec)
			}
			if got := FromSeconds(tt.sec); got != tt.in {
				t.Errorf("FromSeconds(%v) = %v, want %v", tt.sec, got, tt.in)
			}
		})
	}
}

func TestFromSecondsPathological(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := FromSeconds(v); got != 0 {
			t.Errorf("FromSeconds(%v) = %v, want 0", v, got)
		}
	}
}

func TestFromSecondsChecked(t *testing.T) {
	for _, tc := range []struct {
		sec  float64
		want Time
		ok   bool
	}{
		{0, 0, true},
		{1.5, 1500 * Millisecond, true},
		{-2, -2 * Second, true},
		{9e9, 9e9 * Second, true},
		{1e10, 0, false},  // 1e19 ns: FromSeconds wraps it negative
		{-1e10, 0, false}, // below the most negative Time
		{1e300, 0, false}, // FromSeconds wraps it to MinInt64
		{0x1p63 / 1e9, 0, false},
		{math.NaN(), 0, false},
		{math.Inf(1), 0, false},
		{math.Inf(-1), 0, false},
	} {
		got, ok := FromSecondsChecked(tc.sec)
		if got != tc.want || ok != tc.ok {
			t.Errorf("FromSecondsChecked(%g) = %v, %v; want %v, %v", tc.sec, got, ok, tc.want, tc.ok)
		}
		if ok && got != FromSeconds(tc.sec) {
			t.Errorf("FromSecondsChecked(%g) = %v, FromSeconds = %v", tc.sec, got, FromSeconds(tc.sec))
		}
	}
}

func TestFromDuration(t *testing.T) {
	if got := FromDuration(1500 * time.Millisecond); got != 1500*Millisecond {
		t.Fatalf("FromDuration = %v", got)
	}
	if got := (2 * Second).Duration(); got != 2*time.Second {
		t.Fatalf("Duration = %v", got)
	}
}

func TestKernelOrdering(t *testing.T) {
	k := NewKernel(1)
	var order []string
	k.At(3*Second, "c", func() { order = append(order, "c") })
	k.At(1*Second, "a", func() { order = append(order, "a") })
	k.At(2*Second, "b", func() { order = append(order, "b") })
	if err := k.Run(10 * Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if k.Now() != 10*Second {
		t.Fatalf("Now = %v, want 10s", k.Now())
	}
}

func TestKernelFIFOAtSameInstant(t *testing.T) {
	k := NewKernel(1)
	var order []int
	for i := 0; i < 20; i++ {
		i := i
		k.At(Second, "e", func() { order = append(order, i) })
	}
	if err := k.Run(2 * Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestKernelHorizon(t *testing.T) {
	k := NewKernel(1)
	fired := false
	k.At(5*Second, "late", func() { fired = true })
	if err := k.Run(3 * Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if k.Now() != 3*Second {
		t.Fatalf("Now = %v, want 3s", k.Now())
	}
	// Continue past it.
	if err := k.Run(10 * Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired {
		t.Fatal("event did not fire on continued run")
	}
}

func TestKernelPastSchedulingClamps(t *testing.T) {
	k := NewKernel(1)
	var at Time
	k.At(2*Second, "outer", func() {
		k.At(1*Second, "past", func() { at = k.Now() })
	})
	if err := k.Run(5 * Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 2*Second {
		t.Fatalf("past event ran at %v, want clamp to 2s", at)
	}
}

func TestCancel(t *testing.T) {
	k := NewKernel(1)
	fired := false
	h := k.At(Second, "x", func() { fired = true })
	if !h.Pending() {
		t.Fatal("handle should be pending")
	}
	if !h.Cancel() {
		t.Fatal("Cancel should report true for pending event")
	}
	if h.Cancel() {
		t.Fatal("second Cancel should report false")
	}
	if err := k.Run(2 * Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
	if h.Pending() {
		t.Fatal("cancelled handle reports pending")
	}
}

func TestHandleAfterFire(t *testing.T) {
	k := NewKernel(1)
	h := k.At(Second, "x", func() {})
	if err := k.Run(2 * Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if h.Pending() {
		t.Fatal("fired handle reports pending")
	}
	if h.Cancel() {
		t.Fatal("cancelling fired event should report false")
	}
}

func TestStop(t *testing.T) {
	k := NewKernel(1)
	count := 0
	k.Every(0, 100*Millisecond, "tick", func() {
		count++
		if count == 5 {
			k.Stop()
		}
	})
	err := k.Run(10 * Second)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	// Kernel remains usable after a stop.
	if err := k.Run(10 * Second); err != nil {
		t.Fatalf("second Run: %v", err)
	}
}

func TestTicker(t *testing.T) {
	k := NewKernel(1)
	var times []Time
	tk := k.Every(Second, Second, "beat", func() { times = append(times, k.Now()) })
	if err := k.Run(4500 * Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if tk.Ticks() != 4 {
		t.Fatalf("Ticks = %d, want 4", tk.Ticks())
	}
	for i, ts := range times {
		if want := Time(i+1) * Second; ts != want {
			t.Fatalf("tick %d at %v, want %v", i, ts, want)
		}
	}
}

func TestTickerStop(t *testing.T) {
	k := NewKernel(1)
	count := 0
	var tk *Ticker
	tk = k.Every(0, Second, "beat", func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	if err := k.Run(10 * Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if k.Pending() != 0 {
		t.Fatalf("pending = %d after ticker stop", k.Pending())
	}
}

func TestEveryPanicsOnZeroPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero period")
		}
	}()
	k := NewKernel(1)
	k.Every(0, 0, "bad", func() {})
}

func TestAtPanicsOnNilFn(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil fn")
		}
	}()
	k := NewKernel(1)
	k.At(0, "bad", nil)
}

func TestEventsFiredAndPending(t *testing.T) {
	k := NewKernel(1)
	for i := 0; i < 10; i++ {
		k.At(Time(i)*Second, "e", func() {})
	}
	h := k.At(20*Second, "never", func() {})
	h.Cancel()
	if err := k.Run(9 * Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if k.EventsFired() != 10 {
		t.Fatalf("EventsFired = %d, want 10", k.EventsFired())
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", k.Pending())
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []float64 {
		k := NewKernel(seed)
		s := k.Stream("channel")
		var draws []float64
		k.Every(0, 100*Millisecond, "draw", func() { draws = append(draws, s.Float64()) })
		if err := k.Run(Second); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return draws
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical draws")
	}
}

func TestStreamIndependence(t *testing.T) {
	k := NewKernel(7)
	a := k.Stream("a")
	b := k.Stream("b")
	if a == b {
		t.Fatal("distinct names returned same stream")
	}
	if k.Stream("a") != a {
		t.Fatal("same name returned new stream")
	}
	// Draws from a must not be influenced by interleaved draws from b:
	// replay stream a alone and compare.
	var interleaved []float64
	for i := 0; i < 50; i++ {
		interleaved = append(interleaved, a.Float64())
		_ = b.Float64()
	}
	solo := NewStream(7, "a")
	for i, want := range interleaved {
		if got := solo.Float64(); got != want {
			t.Fatalf("draw %d: interleaved %v vs solo %v", i, want, got)
		}
	}
}

func TestQuickSchedulingNeverRunsOutOfOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		k := NewKernel(1)
		var fired []Time
		for _, d := range delays {
			k.At(Time(d)*Millisecond, "e", func() { fired = append(fired, k.Now()) })
		}
		if err := k.Run(Time(1<<16) * Millisecond); err != nil {
			return false
		}
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
