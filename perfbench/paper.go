package main

import (
	"fmt"
	"math"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/bench"
	"github.com/valueflow/usher/internal/passes"
	"github.com/valueflow/usher/internal/workload"
)

// paperMetrics computes the paper's two deterministic cost figures over
// the 15 Table-1 profiles as published (not the seeded variants), so
// they read the same on every run of the same code:
//
//   - staticPct: Usher's static shadow propagations plus checks as a
//     share of MSan's, averaged over profiles (Fig. 11);
//   - costPct: the geometric mean over profiles of bench.Overhead for
//     the Usher-guided run, the paper's Fig. 10 cost model.
func paperMetrics() (staticPct, costPct float64, err error) {
	n := len(workload.Profiles)
	static := make([]float64, n)
	cost := make([]float64, n)
	err = bench.ForEach(refWorkers, n, func(i int) error {
		p := workload.Profiles[i]
		c, err := bench.Prepare(p, passes.O0IM)
		if err != nil {
			return err
		}
		sess := usher.NewSession(c.Prog)
		msan, err := sess.Analyze(usher.ConfigMSan)
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		us, err := sess.Analyze(usher.ConfigUsherFull)
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		m, u := msan.StaticStats(), us.StaticStats()
		static[i] = 100 * float64(u.Props+u.Checks) / float64(m.Props+m.Checks)
		res, err := us.Run(usher.RunOptions{})
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		cost[i] = bench.Overhead(res)
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	logSum := 0.0
	for i := range static {
		staticPct += static[i] / float64(n)
		logSum += math.Log(cost[i])
	}
	return staticPct, math.Exp(logSum / float64(n)), nil
}
