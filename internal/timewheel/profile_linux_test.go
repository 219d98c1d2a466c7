package timewheel

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"runtime/pprof"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestDefaultTickKeepsProfilesHonest runs wheel-paced CPU bursts under the
// CPU profiler and requires the profile to account for at least 75% of
// the CPU getrusage reports. Linux checks CPU-time timers, and so takes
// profile samples, only on its scheduler tick; a wheel tick that divides
// the scheduler tick holds every burst at one phase against it, and the
// profile then loses anywhere up to ~97% of the samples depending on the
// run (see DefaultTick).
func TestDefaultTickKeepsProfilesHonest(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles two seconds of paced CPU bursts")
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	w := New(DefaultTick, DefaultSlots)
	cpu0 := rusageCPU(t)
	end := time.Now().Add(2 * time.Second)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				w.Wait(time.Millisecond, nil)
				for spin := time.Now(); time.Since(spin) < 150*time.Microsecond; {
				}
			}
		}()
	}
	wg.Wait()
	pprof.StopCPUProfile()
	used := rusageCPU(t) - cpu0
	sampled, err := profileCPU(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("profile %v of getrusage %v (%.0f%%)", sampled, used, 100*float64(sampled)/float64(used))
	if sampled < used*3/4 {
		t.Fatalf("CPU profile recorded %v of the %v getrusage reports: under 75%%", sampled, used)
	}
}

func rusageCPU(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// profileCPU sums the CPU time of a gzipped pprof CPU profile: the second
// value (nanoseconds) of every Sample (field 2 of Profile; its values are
// field 2 of Sample, packed or not).
func profileCPU(gz []byte) (time.Duration, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	err = protoFields(raw, func(field int, b []byte) error {
		if field != 2 {
			return nil
		}
		var values []int64
		err := protoFields(b, func(field int, v []byte) error {
			if field != 2 {
				return nil
			}
			for len(v) > 0 {
				x, n := binary.Uvarint(v)
				if n <= 0 {
					return errors.New("bad sample value")
				}
				values = append(values, int64(x))
				v = v[n:]
			}
			return nil
		})
		if err != nil || len(values) < 2 {
			return errors.New("malformed sample")
		}
		total += time.Duration(values[1])
		return nil
	})
	return total, err
}

// protoFields walks one protobuf message, calling f with each varint
// field's encoding or each length-delimited field's payload.
func protoFields(b []byte, f func(field int, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		var payload []byte
		switch key & 7 {
		case 0: // varint
			_, m := binary.Uvarint(b)
			if m <= 0 {
				return errors.New("bad varint")
			}
			payload, b = b[:m], b[m:]
		case 2: // length-delimited
			l, m := binary.Uvarint(b)
			if m <= 0 || uint64(len(b)-m) < l {
				return errors.New("bad length")
			}
			payload, b = b[m:m+int(l)], b[m+int(l):]
		default:
			return errors.New("unexpected wire type")
		}
		if err := f(int(key>>3), payload); err != nil {
			return err
		}
	}
	return nil
}
