// Package core implements the paper's contribution: five front-end
// based fine-grained resource-monitoring schemes over the simulated
// cluster substrate.
//
//	Socket-Async  (§3.1.1)  two back-end threads; probe hits the
//	                        report thread; data from a periodic
//	                        calculation loop.
//	Socket-Sync   (§3.1.2)  one back-end thread; probe triggers a
//	                        fresh /proc read.
//	RDMA-Async    (§3.2.1)  back-end calculation loop writes into a
//	                        registered user buffer; probe is a
//	                        one-sided RDMA read of that buffer.
//	RDMA-Sync     (§3.2.2)  kernel statistics registered directly;
//	                        probe DMAs the live kernel values; no
//	                        back-end process at all.
//	e-RDMA-Sync   (§5.2.1)  RDMA-Sync plus use of detailed kernel
//	                        state (pending interrupts) in the load
//	                        index.
//
// The package also provides the WebSphere-style weighted load index
// (§5.2.1) used by the dispatcher.
package core

import (
	"fmt"
	"strings"
)

// Scheme identifies a resource-monitoring scheme.
type Scheme int

// The five schemes evaluated in the paper.
const (
	SocketAsync Scheme = iota
	SocketSync
	RDMAAsync
	RDMASync
	ERDMASync
)

// Schemes returns all schemes in the paper's presentation order.
func Schemes() []Scheme {
	return []Scheme{SocketAsync, SocketSync, RDMAAsync, RDMASync, ERDMASync}
}

// FourSchemes returns the four micro-benchmark schemes (the paper's
// Figures 3-6 exclude e-RDMA-Sync, which differs only in how the load
// index consumes the record).
func FourSchemes() []Scheme {
	return []Scheme{SocketAsync, SocketSync, RDMAAsync, RDMASync}
}

func (s Scheme) String() string {
	switch s {
	case SocketAsync:
		return "Socket-Async"
	case SocketSync:
		return "Socket-Sync"
	case RDMAAsync:
		return "RDMA-Async"
	case RDMASync:
		return "RDMA-Sync"
	case ERDMASync:
		return "e-RDMA-Sync"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// ParseScheme resolves a case-insensitive scheme name (punctuation
// ignored, so "rdma_sync", "RDMA-Sync" and "rdmasync" all work).
func ParseScheme(name string) (Scheme, error) {
	norm := strings.Map(func(r rune) rune {
		switch r {
		case '-', '_', ' ':
			return -1
		}
		return r
	}, strings.ToLower(name))
	for _, s := range Schemes() {
		cand := strings.Map(func(r rune) rune {
			if r == '-' {
				return -1
			}
			return r
		}, strings.ToLower(s.String()))
		if norm == cand {
			return s, nil
		}
	}
	return 0, fmt.Errorf("core: unknown scheme %q", name)
}

// UsesRDMA reports whether probes use one-sided memory semantics.
func (s Scheme) UsesRDMA() bool { return s >= RDMAAsync }
