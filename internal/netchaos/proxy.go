package netchaos

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Stats counts what the proxy did to traffic. All fields are cumulative
// since Start; reads are atomic snapshots of independently updated
// counters (not a consistent cut, which is fine for reporting).
type Stats struct {
	Accepted     int64 `json:"accepted"`       // connections accepted from clients
	Refused      int64 `json:"refused"`        // connections reset at accept (reset/partition windows)
	Resets       int64 `json:"resets"`         // established connections torn down mid-stream
	BytesUp      int64 `json:"bytes_up"`       // client→upstream bytes forwarded
	BytesDown    int64 `json:"bytes_down"`     // upstream→client bytes forwarded
	BytesDropped int64 `json:"bytes_dropped"`  // bytes black-holed by partition windows
	DelayedChunk int64 `json:"delayed_chunks"` // chunks that waited on a latency/throttle/trickle rule
}

// Proxy is one fault-injected TCP relay: it listens on Addr() and forwards
// to the upstream address, applying the Schedule's active rules to every
// accept and every copied chunk. One Proxy guards one upstream; a fleet
// test runs one Proxy per shard.
type Proxy struct {
	upstream string
	schedule Schedule
	ln       net.Listener
	start    time.Time
	seq      atomic.Int64 // accept sequence, parameterizes per-conn rng

	accepted     atomic.Int64
	refused      atomic.Int64
	resets       atomic.Int64
	bytesUp      atomic.Int64
	bytesDown    atomic.Int64
	bytesDropped atomic.Int64
	delayed      atomic.Int64

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Start listens on listenAddr (e.g. "127.0.0.1:0") and begins relaying to
// upstream under the schedule. The fault clock starts now: rule offsets
// are measured from this call.
func Start(listenAddr, upstream string, sched Schedule) (*Proxy, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("netchaos: listen %s: %w", listenAddr, err)
	}
	p := &Proxy{
		upstream: upstream,
		schedule: sched,
		ln:       ln,
		start:    time.Now(),
		conns:    make(map[net.Conn]struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address — point clients and peer lists
// here instead of at the upstream.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Schedule returns the fault plan the proxy is executing.
func (p *Proxy) Schedule() Schedule { return p.schedule }

// Stats returns a snapshot of the traffic counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Accepted:     p.accepted.Load(),
		Refused:      p.refused.Load(),
		Resets:       p.resets.Load(),
		BytesUp:      p.bytesUp.Load(),
		BytesDown:    p.bytesDown.Load(),
		BytesDropped: p.bytesDropped.Load(),
		DelayedChunk: p.delayed.Load(),
	}
}

// Close stops accepting, tears down every live connection, and waits for
// the relay goroutines to drain.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	err := p.ln.Close()
	p.wg.Wait()
	return err
}

// elapsed is the schedule clock: the offset since Start.
func (p *Proxy) elapsed() time.Duration { return time.Since(p.start) }

func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

// abort closes a TCP connection with RST rather than FIN so the peer sees
// "connection reset by peer" — the signature of a mid-stream network
// failure, distinct from a graceful close.
func abort(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Close()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		seq := p.seq.Add(1)
		// Reset windows refuse new connections outright; partition windows
		// accept them (the SYN handshake happens below IP filtering in a
		// real partition too — the local stack completes it) but the relay
		// below will black-hole every byte.
		if p.anyActive(KindReset) {
			p.refused.Add(1)
			abort(client)
			continue
		}
		p.accepted.Add(1)
		p.wg.Add(1)
		go p.relay(client, seq)
	}
}

func (p *Proxy) anyActive(k Kind) bool {
	for _, r := range p.schedule.ActiveAt(p.elapsed()) {
		if r.Kind == k {
			return true
		}
	}
	return false
}

// relay dials upstream and runs the two directional copiers. Each
// connection gets its own rng derived from (schedule seed, accept seq) so
// jitter draws replay per connection regardless of goroutine interleaving.
func (p *Proxy) relay(client net.Conn, seq int64) {
	defer p.wg.Done()
	if !p.track(client) {
		client.Close()
		return
	}
	defer p.untrack(client)
	defer client.Close()

	up, err := net.DialTimeout("tcp", p.upstream, 5*time.Second)
	if err != nil {
		abort(client)
		return
	}
	if !p.track(up) {
		up.Close()
		return
	}
	defer p.untrack(up)
	defer up.Close()

	// Independent rngs per direction keep the draw sequences deterministic
	// even though the copiers interleave arbitrarily.
	upRNG := rand.New(rand.NewSource(p.schedule.Seed ^ seq<<1))
	downRNG := rand.New(rand.NewSource(p.schedule.Seed ^ (seq<<1 | 1)))

	var cwg sync.WaitGroup
	cwg.Add(2)
	go func() {
		defer cwg.Done()
		p.copyDir(up, client, upRNG, true)
		// Half-close toward upstream so request bodies end properly.
		if tc, ok := up.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
	}()
	go func() {
		defer cwg.Done()
		p.copyDir(client, up, downRNG, false)
		if tc, ok := client.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
	}()
	cwg.Wait()
}

// copyDir pumps src→dst in chunks, applying the currently active rules to
// each chunk: reset tears the connection down, partitions drop the bytes,
// trickle dribbles them one byte per interval, latency sleeps, throttle
// paces by size. Rules are re-evaluated per chunk so windows engage and
// heal mid-connection.
func (p *Proxy) copyDir(dst, src net.Conn, rng *rand.Rand, toUpstream bool) {
	buf := make([]byte, 16<<10)
	for {
		n, rerr := src.Read(buf)
		if n > 0 {
			if !p.forwardChunk(dst, src, buf[:n], rng, toUpstream) {
				return
			}
		}
		if rerr != nil {
			return
		}
	}
}

func (p *Proxy) forwardChunk(dst, src net.Conn, chunk []byte, rng *rand.Rand, toUpstream bool) bool {
	var (
		delay    time.Duration
		throttle int
		trickle  time.Duration
		drop     bool
	)
	for _, r := range p.schedule.ActiveAt(p.elapsed()) {
		switch r.Kind {
		case KindReset:
			p.resets.Add(1)
			abort(dst)
			abort(src)
			return false
		case KindPartition:
			drop = true
		case KindPartitionIn:
			if toUpstream {
				drop = true
			}
		case KindPartitionOut:
			if !toUpstream {
				drop = true
			}
		case KindLatency:
			d := r.Latency
			if r.Jitter > 0 {
				d += time.Duration(rng.Int63n(int64(2*r.Jitter))) - r.Jitter
			}
			if d > delay {
				delay = d
			}
		case KindThrottle:
			if r.BytesPerSec > 0 && (throttle == 0 || r.BytesPerSec < throttle) {
				throttle = r.BytesPerSec
			}
		case KindTrickle:
			if r.Interval > trickle {
				trickle = r.Interval
			}
		}
	}
	if drop {
		p.bytesDropped.Add(int64(len(chunk)))
		return true // swallow silently; the peer just sees a stall
	}
	if delay > 0 {
		p.delayed.Add(1)
		time.Sleep(delay)
	}
	if throttle > 0 {
		p.delayed.Add(1)
		time.Sleep(time.Duration(float64(len(chunk)) / float64(throttle) * float64(time.Second)))
	}
	if trickle > 0 {
		p.delayed.Add(1)
		for i := range chunk {
			time.Sleep(trickle)
			if !p.write(dst, chunk[i:i+1], toUpstream) {
				return false
			}
		}
		return true
	}
	return p.write(dst, chunk, toUpstream)
}

// write forwards b to dst. The bytes are counted before the write, so a
// peer that has seen them and answered never finds them missing from
// Stats; a failed write takes back what it did not deliver.
func (p *Proxy) write(dst net.Conn, b []byte, toUpstream bool) bool {
	p.countBytes(len(b), toUpstream)
	n, err := dst.Write(b)
	if err != nil {
		p.countBytes(n-len(b), toUpstream)
	}
	return err == nil
}

func (p *Proxy) countBytes(n int, toUpstream bool) {
	if toUpstream {
		p.bytesUp.Add(int64(n))
	} else {
		p.bytesDown.Add(int64(n))
	}
}

// WaitHealthy blocks until the schedule has no active fault windows or the
// context expires — used by tests and scripts to line up "after the
// partition heals" assertions with the schedule rather than sleeping blind.
func (p *Proxy) WaitHealthy(ctx context.Context) error {
	for {
		if len(p.schedule.ActiveAt(p.elapsed())) == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// ErrClosed is returned by operations on a closed proxy. (Reserved for
// future accessors; Close itself is idempotent.)
var ErrClosed = errors.New("netchaos: proxy closed")

var _ io.Closer = (*Proxy)(nil)
