package thrifty

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"repro/internal/workload"
)

// digestWorkload hashes everything the generator decides: the JSON the CLI
// tool chain reads (descriptors and activity) and every scheduled session —
// its start and each of its events' offset, class, user, batch and duration.
func digestWorkload(t *testing.T, w *Workload, days int) string {
	t.Helper()
	h := fnv.New64a()
	if err := workload.WriteJSON(h, w.Logs, days); err != nil {
		t.Fatal(err)
	}
	var b []byte
	for _, tl := range w.Logs {
		b = fmt.Appendf(b[:0], "%s %d\n", tl.Tenant.ID, len(tl.Sessions))
		for _, s := range tl.Sessions {
			b = binary.LittleEndian.AppendUint64(b, uint64(s.Start))
			for _, e := range s.Log.Events {
				b = binary.LittleEndian.AppendUint64(b, uint64(e.Offset))
				b = append(append(b, e.ClassID...), 0)
				b = binary.LittleEndian.AppendUint64(b, uint64(e.User))
				b = binary.LittleEndian.AppendUint64(b, uint64(e.Batch))
				b = binary.LittleEndian.AppendUint64(b, uint64(e.Duration))
			}
		}
		h.Write(b)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestWorkloadDigestPinned pins the generator's output bit for bit on the
// shapes the benchmark generates: replay-7d's population and plan-4x500's
// first. Compose builds tenants' activity GOMAXPROCS wide, so each digest is
// taken at three widths.
func TestWorkloadDigestPinned(t *testing.T) {
	pinned := []struct {
		tenants int
		seed    int64
		digest  string
	}{
		{200, 1, "9f86cf44c66ec538"},
		{500, 40, "3fc432282abc2e33"},
	}
	for _, want := range pinned {
		for _, procs := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("tenants=%d/seed=%d/GOMAXPROCS=%d", want.tenants, want.seed, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				w, err := GenerateWorkload(WorkloadConfig{Tenants: want.tenants, Days: 7, SessionsPerClass: 10, Seed: want.seed})
				if err != nil {
					t.Fatal(err)
				}
				if got := digestWorkload(t, w, 7); got != want.digest {
					t.Errorf("workload digest %s, pinned %s", got, want.digest)
				}
			})
		}
	}
}
