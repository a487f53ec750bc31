package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"

	"spin/internal/dispatch"
	"spin/internal/kernel"
	"spin/internal/netstack"
	"spin/internal/netwire"
	"spin/internal/rtti"
	"spin/internal/sched"
	"spin/internal/vtime"
)

// The udp_fanin workload: Table 2's two-machine UDP echo at a population
// where guard evaluation dominates the receive path. Two metered machines
// share one netwire link; each carries 512 inactive endpoints guarded by
// inline ArgEq port guards. One caller sends a seeded 8-byte payload from
// a client strand that re-arms itself and drives the simulator until the
// echo comes back (closed loop).

const (
	fanInactive    = 512     // inactive endpoints per machine
	fanPayloads    = 4096    // distinct seeded payloads, cycled
	fanStepLimit   = 100_000 // simulator steps before a trip counts as lost
	fanClientPort  = 5000
	fanEchoPort    = 7
	fanFirstPort   = 40000
	fanServerIP    = "10.0.0.2"
	fanGoldenRTTns = 485_098 // virtual round trip at this population
)

var fanModule = rtti.NewModule("PerfbenchFanin")

// fanRig is the assembled two-machine echo.
type fanRig struct {
	a, b           *kernel.Machine
	sa, sb         *netstack.Stack
	client, server *netstack.UDPSocket
	inactive       []*dispatch.Binding

	payloads, want [][]byte // seeded inputs and an independent copy

	// Set by the client strand when the echo arrives.
	reply   *netstack.Packet
	replyAt vtime.Time

	sent    int // payload index of the trip in flight
	startAt vtime.Time
	steps   int64

	installNS []int64 // per-install latency of the inactive endpoints
}

// fanPayloadSet derives the seeded payloads.
func fanPayloadSet(seed uint64) [][]byte {
	rng := rand.New(rand.NewPCG(seed, 0x75647066616e696e)) // "udpfanin"
	out := make([][]byte, fanPayloads)
	for i := range out {
		p := make([]byte, 8)
		for j := range p {
			p[j] = byte(rng.Uint32())
		}
		out[i] = p
	}
	return out
}

// newFanRig boots both machines, installs the inactive endpoints, binds
// the client and echo sockets, and completes a first round trip.
func newFanRig(seed uint64) (*fanRig, error) {
	r := &fanRig{payloads: fanPayloadSet(seed), want: fanPayloadSet(seed)}
	var err error
	if r.a, err = kernel.Boot(kernel.Config{Name: "a", Metered: true}); err != nil {
		return nil, err
	}
	if r.b, err = kernel.Boot(kernel.Config{Name: "b", ShareWith: r.a}); err != nil {
		return nil, err
	}
	link := netwire.NewLink(r.a.Sim, 0, 0)
	nicA, err := link.Attach("mac-a")
	if err != nil {
		return nil, err
	}
	nicB, err := link.Attach("mac-b")
	if err != nil {
		return nil, err
	}
	arp := map[string]string{"10.0.0.1": "mac-a", fanServerIP: "mac-b"}
	if r.sa, err = netstack.New(netstack.Config{Dispatcher: r.a.Dispatcher, CPU: r.a.CPU,
		Sched: r.a.Sched, NIC: nicA, IP: "10.0.0.1", ARP: arp, InlinePortGuards: true}); err != nil {
		return nil, err
	}
	if r.sb, err = netstack.New(netstack.Config{Dispatcher: r.b.Dispatcher, CPU: r.b.CPU,
		Sched: r.b.Sched, NIC: nicB, IP: fanServerIP, ARP: arp, Prefix: "B:",
		InlinePortGuards: true}); err != nil {
		return nil, err
	}

	pktSig := rtti.Sig(nil, rtti.Word, netstack.PacketType)
	inactive := &rtti.Proc{Name: "Perfbench.Inactive", Module: fanModule, Sig: pktSig}
	nop := func(any, []any) any { return nil }
	r.installNS = make([]int64, 0, 2*fanInactive)
	for _, s := range []*netstack.Stack{r.sa, r.sb} {
		for i := 0; i < fanInactive; i++ {
			g := s.PortGuard("Perfbench.InactiveGuard", uint16(fanFirstPort+i))
			t0 := nowNS()
			b, err := s.UDPArrived.Install(dispatch.Handler{Proc: inactive, Fn: nop}, dispatch.WithGuard(g))
			r.installNS = append(r.installNS, nowNS()-t0)
			if err != nil {
				return nil, fmt.Errorf("install inactive endpoint: %w", err)
			}
			r.inactive = append(r.inactive, b)
		}
	}

	if r.client, err = r.sa.BindUDP(fanClientPort); err != nil {
		return nil, err
	}
	if r.server, err = r.sb.BindUDP(fanEchoPort); err != nil {
		return nil, err
	}
	r.b.Sched.Spawn("echo", 1, func(st *sched.Strand) sched.Status {
		for {
			pkt, ok := r.server.Recv()
			if !ok {
				break
			}
			_ = r.server.Send(pkt.SrcIP, pkt.SrcPort, pkt.Payload)
		}
		r.server.AwaitPacket(st)
		return sched.Block
	})
	// The client strand collects each echo and re-arms itself, so one
	// rig serves every round trip.
	r.a.Sched.Spawn("client", 1, func(st *sched.Strand) sched.Status {
		for {
			pkt, ok := r.client.Recv()
			if !ok {
				break
			}
			r.reply, r.replyAt = pkt, r.a.Clock.Now()
		}
		r.client.AwaitPacket(st)
		return sched.Block
	})
	r.a.Sim.Run(fanStepLimit) // settle the spawn pumps
	if err := r.do(0, nil); err != nil {
		return nil, err
	}
	return r, r.check()
}

// do sends one payload and drives the simulator until it is quiescent.
func (r *fanRig) do(op int64, tr *tracer) error {
	root := tr.begin("udp.roundtrip", -1, op)
	defer tr.end(root)
	r.sent = int(op % fanPayloads)
	r.reply = nil
	r.startAt = r.a.Clock.Now()
	sp := tr.begin("netstack.UDPSocket.Send", root, op)
	err := r.client.Send(fanServerIP, fanEchoPort, r.payloads[r.sent])
	tr.end(sp)
	if err != nil {
		return err
	}
	var steps int64
	for r.a.Sim.Pending() > 0 {
		sp := tr.begin("vtime.Simulator.Step", root, op)
		r.a.Sim.Step()
		tr.end(sp)
		if steps++; steps > fanStepLimit {
			return fmt.Errorf("udp_fanin: trip %d exceeded %d simulator steps", op, fanStepLimit)
		}
	}
	r.steps += steps
	return nil
}

// check verifies the trip: the echo arrived, carries its own payload, and
// took exactly the golden virtual round trip.
func (r *fanRig) check() error {
	switch {
	case r.reply == nil:
		return fmt.Errorf("udp_fanin: echo of payload %d never arrived", r.sent)
	case r.reply.SrcPort != fanEchoPort:
		return fmt.Errorf("udp_fanin: echo from port %d, want %d", r.reply.SrcPort, fanEchoPort)
	case !bytes.Equal(r.reply.Payload, r.want[r.sent]):
		return fmt.Errorf("udp_fanin: echo payload %x, want %x", r.reply.Payload, r.want[r.sent])
	}
	if rtt := r.replyAt.Sub(r.startAt); rtt != fanGoldenRTTns {
		return fmt.Errorf("udp_fanin: virtual round trip %d ns, want %d", int64(rtt), int64(fanGoldenRTTns))
	}
	return nil
}

// checkInactive verifies that no inactive endpoint ever fired.
func (r *fanRig) checkInactive() error {
	for i, b := range r.inactive {
		if n := b.Fired(); n != 0 {
			return fmt.Errorf("udp_fanin: inactive endpoint %d fired %d times", i, n)
		}
	}
	return nil
}

// fanCounters is a snapshot of the rig's per-layer counts.
type fanCounters struct {
	steps, switches int64
	raised          map[string]int64
}

func (r *fanRig) counters() fanCounters {
	c := fanCounters{steps: r.steps, switches: r.a.Sched.Switches() + r.b.Sched.Switches(),
		raised: map[string]int64{}}
	for _, s := range []*netstack.Stack{r.sa, r.sb} {
		for _, ev := range []*dispatch.Event{s.EtherArrived, s.IPArrived, s.UDPArrived} {
			c.raised[ev.Name()] = ev.Stats().Raised
		}
	}
	return c
}

func runUDPFanin(cfg config, rep *report) error {
	if err := reportBoot(rep, func() error {
		a, err := kernel.Boot(kernel.Config{Name: "a", Metered: true})
		if err != nil {
			return err
		}
		_, err = kernel.Boot(kernel.Config{Name: "b", ShareWith: a})
		return err
	}); err != nil {
		return err
	}
	r, setup, err := setupMedian(func() (*fanRig, error) {
		rep.attempted++
		return newFanRig(cfg.seed)
	}, nil)
	if err != nil {
		return err
	}
	rep.set("setup_s", setup, "s")
	inst := durationsUS(r.installNS)
	rep.set("dispatch.install_us.p50", percentile(inst, 50), "us")
	rep.set("dispatch.install_us.p90", percentile(inst, 90), "us")
	rep.setZero(x11Counts)
	rep.setZero(journalCounts)

	before := r.counters()
	ops, err := driveClosedLoop(cfg, rep, r, func(tr *tracer, st loopStats) {
		agg := selfTimes(tr.spans)
		n := float64(st.ops)
		rep.set("netstack.send_us", float64(agg["netstack.UDPSocket.Send"].self)/n/1e3, "us")
		rep.set("vtime.step_us_per_op", float64(agg["vtime.Simulator.Step"].self)/n/1e3, "us")
		rep.set("harness.op_self_us", float64(agg["udp.roundtrip"].self)/n/1e3, "us")
	})
	if err != nil {
		return err
	}
	after := r.counters()
	if ops > 0 {
		n := float64(ops)
		rep.set("vtime.steps_per_op", float64(after.steps-before.steps)/n, "count")
		rep.set("sched.switches_per_op", float64(after.switches-before.switches)/n, "count")
		names := make([]string, 0, len(after.raised))
		for name := range after.raised {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			rep.set("dispatch.raised_per_op."+strings.ReplaceAll(name, ":", "."),
				float64(after.raised[name]-before.raised[name])/n, "count")
		}
	}
	rep.attempted++
	if err := r.checkInactive(); err != nil {
		rep.fail(1, err)
	}
	return nil
}
