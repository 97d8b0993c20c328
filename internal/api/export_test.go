package api

import (
	"sync"

	"repro/internal/engine"
)

// gatedBatch blocks every runner of a batch until gate closes. It hides
// the batch's batched executor, so evaluation goes through NewRunner.
type gatedBatch struct {
	engine.Batch
	gate <-chan struct{}
}

func (g gatedBatch) NewRunner() engine.Runner {
	<-g.gate
	return g.Batch.NewRunner()
}

// GatePoint makes svc's evaluation of point i of the sweep body's grid
// block until the returned open runs; open is idempotent. It lets a
// test hold a stream at a known point.
func GatePoint(svc *Service, body string, i int) (open func(), err error) {
	pl, err := svc.planBody([]byte(body))
	if err != nil {
		return nil, err
	}
	pt := pl.point(i)
	resolved, err := pt.eng.Resolve(pt.req)
	if err != nil {
		return nil, err
	}
	b, err := pt.eng.Compile(resolved)
	if err != nil {
		return nil, err
	}
	gate := make(chan struct{})
	var once sync.Once
	svc.batches.add(batchKey(pt.eng.Name(), resolved), gatedBatch{Batch: b, gate: gate})
	return func() { once.Do(func() { close(gate) }) }, nil
}
