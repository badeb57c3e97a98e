package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/repo"
)

// ingestLong: every agent streams one longRecords-record session per
// round, and rounds repeat until the window has passed. Each round has
// the same model mix, so the number of rounds does not change the
// per-record cost. The per-record path dominates: wire decode, session
// drain, stream analysis, the durable session-log append, and the
// finalize-time OLS and archive encode.
var ingestLong = workload{
	load: func(b *bench, o *outcome, deadline time.Time) {
		for round := 0; round == 0 || time.Now().Before(deadline); round++ {
			t, ops, recs := time.Now(), len(o.ops), o.records
			var wg sync.WaitGroup
			for a := range b.agents {
				wg.Add(1)
				go func(a int) {
					defer wg.Done()
					s := stream{base: b.base(a, round), n: longRecords}
					b.ingest(o, a, fmt.Sprintf("long-%d-%d", round, a), s, true)
				}(a)
			}
			wg.Wait()
			o.slices = append(o.slices, slice{time.Since(t), len(o.ops) - ops, o.records - recs})
		}
	},
	audit: auditIngest,
}

// ingestChurn: agents run short sessions (Open, one batch, Finalize)
// back to back until the deadline, so the control path dominates:
// wrong-door redirects, sequence leases, session meta writes, journal
// intents, manifest CAS and group commit.
var ingestChurn = workload{
	load: func(b *bench, o *outcome, deadline time.Time) {
		var wg sync.WaitGroup
		for a := range b.agents {
			wg.Add(1)
			go func(a int) {
				defer wg.Done()
				for m := 0; time.Now().Before(deadline); m++ {
					s := stream{base: b.base(a+m, m/len(baseModels)), off: m * batchRecords, n: batchRecords}
					b.ingest(o, a, fmt.Sprintf("churn-%d-%d", a, m), s, false)
				}
			}(a)
		}
		wg.Wait()
	},
	audit: auditIngest,
}

// ingest runs one session from agent a and books it. For ingest-long
// the unit operation is one PutBatch; for churn it is the session.
func (b *bench) ingest(o *outcome, a int, runID string, s stream, perBatch bool) {
	res, err := runSession(b.agents[a], b.col.store, runID, s)
	o.mu.Lock()
	o.attempted += int64(len(res.appends)) + 1
	if err == nil {
		o.attempted++ // the finalize
		o.records += int64(s.n)
		o.sessions = append(o.sessions, ingested{runID: runID, s: s, info: res.info})
		o.finalizes = append(o.finalizes, res.finalize)
		o.sessLat = append(o.sessLat, res.total())
		if !perBatch {
			o.ops = append(o.ops, res.total())
			o.complete(int64(s.n))
		}
	}
	o.appends = append(o.appends, res.appends...)
	if perBatch {
		o.ops = append(o.ops, res.appends...)
	}
	o.busy += res.total()
	o.mu.Unlock()
	if err != nil {
		o.fail(err)
	}
}

func auditIngest(b *bench, o *outcome) error {
	acked := make([]repo.RunInfo, len(o.sessions))
	for i, s := range o.sessions {
		acked[i] = s.info
	}
	if err := b.auditCommon(acked); err != nil {
		return err
	}
	return b.auditRecords(o.sessions)
}
