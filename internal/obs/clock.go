package obs

import "time"

// wallClock is the one sanctioned wall-clock entry point in this
// package. The tracer defaults to it and exposes SetClock, so
// deterministic runs swap the clock in one place; new code must thread
// a clock through rather than calling time.Now directly — the
// nodeterminism lint enforces exactly that.
func wallClock() time.Time {
	//lint:ignore nodeterminism the single sanctioned wall-clock source; everything downstream is swappable via SetClock
	return time.Now()
}
