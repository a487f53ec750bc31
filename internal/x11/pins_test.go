package x11

import (
	"testing"

	"spin/internal/vtime"
)

// TestPreviewExactNanoseconds pins the calibrated preview to the
// nanosecond: the per-account totals and each Table 3 event's metered
// dispatch time. The formatted outputs round to hundredths of a second, so
// this is the check that a change to how the dispatcher meters virtual
// time (batching charges, reordering them) moved no clock reading at all.
func TestPreviewExactNanoseconds(t *testing.T) {
	r, err := Run(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want vtime.Duration
	}{
		{"total", r.Total, 23_405_677_610},
		{"idle", r.Idle, 12_009_081_440},
		{"user", r.User, 4_200_000_000},
		{"kernel", r.Kernel, 7_134_482_600},
		{"events", r.Events, 62_113_570},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d ns, want %d ns", c.name, int64(c.got), int64(c.want))
		}
	}
	want := []struct {
		event  string
		raised int64
		time   vtime.Duration
	}{
		{"Ether.PacketArrived", 2521, 238_358_416},
		{"Ip.PacketArrived", 2514, 200_051_502},
		{"Udp.PacketArrived", 24, 357_578},
		{"Tcp.PacketArrived", 2490, 159_929_986},
		{"OsfNet.DelTcpPortHandler", 3, 330},
		{"OsfNet.AddTcpPortHandler", 3, 330},
		{"MachineTrap.Syscall", 3772, 234_834_144},
		{"Strand.Run", 7208, 6_955_720},
		{"Events.EventNotify", 458, 250_068},
	}
	if len(r.Rows) != len(want) {
		t.Fatalf("%d Table 3 rows, want %d", len(r.Rows), len(want))
	}
	for i, w := range want {
		row := r.Rows[i]
		if row.Event != w.event || row.Raised != w.raised || row.Time != w.time {
			t.Errorf("row %d = %s raised %d time %d ns, want %s raised %d time %d ns",
				i, row.Event, row.Raised, int64(row.Time), w.event, w.raised, int64(w.time))
		}
	}
}
