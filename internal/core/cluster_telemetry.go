package core

import (
	"fmt"

	"dclue/internal/netsim"
	"dclue/internal/telemetry"
)

// This file wires the unified telemetry registry (internal/telemetry) into
// the cluster: instrument creation at assembly, re-attachment across node
// crash-restarts, and the end-of-run utilization decomposition. All of it is
// gated on Params.Telemetry; an untelemetered run never allocates a registry
// and every component hook short-circuits on its nil instrument handle.

// Link groups for the utilization decomposition.
const (
	telGroupNode = iota
	telGroupInterLata
	telGroupClient
)

// telLink pairs an instrumented link with its group so collectTelemetry can
// cross-check the per-class attribution against the link's own counter.
type telLink struct {
	group int
	link  *netsim.Link
	tel   *telemetry.LinkTel
}

// initTelemetry creates this run's registry and the per-node engine
// instruments (CPU, GCS). These are created before node assembly because
// attachEngine attaches them — and re-attaches them when a crashed node
// boots a fresh engine, so a node's counters stay cumulative across
// restarts.
func (c *Cluster) initTelemetry() {
	if c.P.Telemetry == nil {
		return
	}
	reg := c.P.Telemetry.NewRegistry(c.P.runLabel())
	c.telReg = reg
	for i := 0; i < c.P.Nodes; i++ {
		c.telCPU = append(c.telCPU, reg.NewCPU(fmt.Sprintf("node%d.cpu", i)))
		c.telGCS = append(c.telGCS, reg.NewGCS(fmt.Sprintf("node%d.gcs", i)))
	}
}

// instrumentFabric attaches link, queue and disk instruments once the
// topology and nodes exist. The hardware persists across crash-restarts
// (NICs, links, enclosures), so these attach exactly once. Queue names match
// the trace layer's gauge sampler so the two observability surfaces line up.
func (c *Cluster) instrumentFabric() {
	reg := c.telReg
	if reg == nil {
		return
	}
	hook := func(group int, name string, l *netsim.Link) {
		lt := reg.NewLink(name)
		l.SetTelemetry(lt)
		c.telLinks = append(c.telLinks, telLink{group: group, link: l, tel: lt})
	}
	for i := range c.nodes {
		up, down := c.Topo.NodeLinks(i)
		hook(telGroupNode, fmt.Sprintf("node%d.up", i), up)
		hook(telGroupNode, fmt.Sprintf("node%d.down", i), down)
		up.Queue().SetTelemetry(reg.NewQueue(fmt.Sprintf("node%d.nic", i)))
	}
	for l := range c.Topo.Config.NodesPerLata {
		up, down := c.Topo.InterLataLinkPair(l)
		hook(telGroupInterLata, fmt.Sprintf("interlata%d.up", l), up)
		hook(telGroupInterLata, fmt.Sprintf("interlata%d.down", l), down)
	}
	cUp, cDown := c.Topo.ClientLinks()
	hook(telGroupClient, "client.up", cUp)
	hook(telGroupClient, "client.down", cDown)
	cUp.Queue().SetTelemetry(reg.NewQueue("client.nic"))
	for ri, r := range c.Topo.Inner {
		for pi, q := range r.Ports() {
			q.SetTelemetry(reg.NewQueue(fmt.Sprintf("inner%d.port%d", ri, pi)))
		}
	}
	for pi, q := range c.Topo.Outer.Ports() {
		q.SetTelemetry(reg.NewQueue(fmt.Sprintf("outer.port%d", pi)))
	}
	for i, n := range c.nodes {
		for d, drv := range n.drives {
			dt := reg.NewDisk(fmt.Sprintf("node%d.disk%d", i, d))
			drv.SetTelemetry(dt)
			c.telDisks = append(c.telDisks, dt)
		}
		lt := reg.NewDisk(fmt.Sprintf("node%d.log", i))
		n.logDisk.SetTelemetry(lt)
		c.telLogs = append(c.telLogs, lt)
	}
	if c.san != nil {
		for d, drv := range c.san.Drives {
			dt := reg.NewDisk(fmt.Sprintf("san.disk%d", d))
			drv.SetTelemetry(dt)
			c.telDisks = append(c.telDisks, dt)
		}
	}
}

// collectTelemetry fills the utilization decomposition from the instruments
// and seals the registry, making it visible to the collector's exporters.
func (c *Cluster) collectTelemetry(m *Metrics) {
	u := &m.UtilDecomp
	u.Enabled = true
	u.ElapsedSec = c.Sim.Now().Seconds()
	for _, tl := range c.telLinks {
		total := tl.link.BusyTime()
		//lint:allow telemnil every telLink is built around a live instrument at hook time
		if tl.tel.BusyTotal() != total {
			u.AttribMismatch++
		}
		cu, sec := classUtilOf(tl.tel), total.Seconds()
		switch tl.group {
		case telGroupNode:
			u.NodeLinks = u.NodeLinks.add(cu)
			u.NodeLinksBusySec += sec
		case telGroupInterLata:
			u.InterLata = u.InterLata.add(cu)
			u.InterLataBusySec += sec
		case telGroupClient:
			u.ClientLink = u.ClientLink.add(cu)
			u.ClientBusySec += sec
		}
	}
	for _, ct := range c.telCPU {
		u.CPUThreadSec += ct.ThreadBusy.Seconds()
		u.CPUIrqSec += ct.IRQBusy.Seconds()
	}
	for _, dt := range c.telDisks {
		u.DiskBusySec += dt.Busy.Seconds()
	}
	for _, dt := range c.telLogs {
		u.LogDiskBusySec += dt.Busy.Seconds()
	}
	for _, gt := range c.telGCS {
		u.GCSCtlMsgs += gt.CtlMsgs
		u.GCSDataMsgs += gt.DataMsgs
		u.LockWaitSec += gt.LockWait.Sum()
	}
	if col := c.P.Telemetry; col != nil {
		col.Seal(c.telReg)
	}
}

// classUtilOf converts a link's per-class busy times to reported seconds.
func classUtilOf(lt *telemetry.LinkTel) ClassUtil {
	return ClassUtil{
		IPC:       lt.Busy[telemetry.ClassIPC].Seconds(),
		ISCSI:     lt.Busy[telemetry.ClassISCSI].Seconds(),
		Client:    lt.Busy[telemetry.ClassClient].Seconds(),
		FTP:       lt.Busy[telemetry.ClassFTP].Seconds(),
		Heartbeat: lt.Busy[telemetry.ClassHeartbeat].Seconds(),
		Other:     lt.Busy[telemetry.ClassOther].Seconds(),
	}
}
