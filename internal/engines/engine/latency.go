package engine

import (
	"context"
	"time"
)

// spinCeiling is the longest service time simulated by busy-spinning.
// Stalls beyond it (fault injection, pathological configurations) park on
// a timer instead of burning a core, and become cancellable at timer
// granularity rather than only at the end.
const spinCeiling = 2 * time.Millisecond

// SimulateWait simulates the service time d of a real data-management
// system: network round trip, protocol parsing, dispatch. The in-process
// substrates answer in nanoseconds, which would erase the inter-store
// differences the paper's scenario exploits (a Redis GET costs ~0.1 ms on a
// LAN, a Postgres query ~0.5 ms, a Spark job dispatch ~100 ms); scaled-down
// latencies restore the realistic ratios while keeping benchmarks fast.
//
// Waits up to spinCeiling are busy spins with a periodic cancellation
// check (time.Sleep cannot hold microsecond deadlines), so simulated
// service time shows up as CPU time in profiles — acceptable for a
// simulator. Longer waits (injected stalls) park on a timer racing ctx,
// so a stalled store cannot pin a query past its deadline. A nil ctx is
// uncancellable; a zero d (the default everywhere outside the scenario
// wiring) is a no-op.
func SimulateWait(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	var done <-chan struct{}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
		done = ctx.Done()
	}
	if d <= spinCeiling {
		end := time.Now().Add(d)
		for i := 0; time.Now().Before(end); i++ {
			// Poll the context every ~1k spins: cheap enough not to skew
			// the simulated microsecond budgets, frequent enough that a
			// cancelled query leaves within tens of microseconds.
			if done != nil && i%1024 == 0 {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
		}
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	if done == nil {
		<-t.C
		return nil
	}
	select {
	case <-t.C:
		return nil
	case <-done:
		return ctx.Err()
	}
}
