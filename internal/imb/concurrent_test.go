package imb_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/imb"
	"repro/internal/par"
	"repro/internal/persist"
	"repro/internal/units"
)

// TestConcurrentRunsMatchSerial builds several tables at once, as a cold
// pipeline does on its par workers. Each imb.Run owns its coroutine pool
// and resumes it only from the goroutine running that Run, so under -race
// this pins that no pool is shared across goroutines; the persisted bytes
// must equal a serial build's.
func TestConcurrentRunsMatchSerial(t *testing.T) {
	jobs := []struct {
		machine string
		ranks   int
	}{
		{arch.Hydra, 16}, {arch.Hydra, 8}, {arch.Power6, 16},
		{arch.Westmere, 12}, {arch.Hydra, 16}, {arch.Power6, 8},
	}
	sizes := units.Pow2Sizes(16, 16*units.KiB)
	build := func(i int) ([]byte, error) {
		tab, err := imb.Run(arch.MustGet(jobs[i].machine), jobs[i].ranks, sizes)
		if err != nil {
			return nil, err
		}
		return persist.MarshalIMB(tab)
	}

	serial := make([][]byte, len(jobs))
	for i := range jobs {
		b, err := build(i)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = b
	}
	for _, workers := range []int{2, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got := make([][]byte, len(jobs))
			if err := par.ForEach(workers, len(jobs), func(i int) (err error) {
				got[i], err = build(i)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			for i := range jobs {
				if !bytes.Equal(got[i], serial[i]) {
					t.Errorf("%s@%d: concurrent table differs from serial", jobs[i].machine, jobs[i].ranks)
				}
			}
		})
	}
}
