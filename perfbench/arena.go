package main

import (
	"fmt"
	"syscall"
)

// arena holds the run's request bodies in anonymous memory mappings, outside
// the Go heap. The client shares its process with the server under test, so
// tens of megabytes of pre-encoded bodies on the heap would raise the
// collector's heap target and thin out its cycles. A kavserve process does
// not carry them, and its collector paces on its own heap alone; keeping the
// bodies off the heap keeps that pacing, and the latency tails it sets,
// the server's own.
type arena struct {
	chunks [][]byte
	free   []byte
}

const arenaChunk = 16 << 20

// copy returns a copy of b in the arena.
func (a *arena) copy(b []byte) ([]byte, error) {
	if len(a.free) < len(b) {
		mem, err := syscall.Mmap(-1, 0, max(arenaChunk, len(b)),
			syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return nil, fmt.Errorf("arena: %w", err)
		}
		a.chunks = append(a.chunks, mem)
		a.free = mem
	}
	out := a.free[:len(b):len(b)]
	a.free = a.free[len(b):]
	copy(out, b)
	return out, nil
}

// release unmaps every chunk; no body may be used afterwards.
func (a *arena) release() {
	for _, c := range a.chunks {
		syscall.Munmap(c) // only fails for a range that is not mapped
	}
	a.chunks, a.free = nil, nil
}
