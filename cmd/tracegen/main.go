// Command tracegen dumps a workload's page-access stream, either as CSV
// (op,page,write) for eyeballing and external tools, or as a binary trace
// file (docs/TRACE_FORMAT.md) that replays as a first-class workload via
// htiersim -replay or the "trace:<path>" workload name. Traces can be
// large; use -ops to bound them, and a ".gz" -o suffix to compress v1
// binary output. -format bin2 writes the columnar v2 container instead:
// packed for the batched hot path, at the cost of gzip framing.
//
// Usage:
//
//	tracegen -workload pr-kron -ops 10000 [-scale quick|full] [-seed 1]
//	         [-format csv|bin|bin2] [-o out.htrc]
//	tracegen -convert in.htrc -o out.htrc [-format bin|bin2]
//
// -convert rewrites an existing trace into the -format container,
// preserving the replayed stream exactly — ops, virtual-time marks, and
// shift marks all survive, in either direction.
//
// Generator-dumped binary traces carry no virtual-time or shift marks —
// only a simulation assigns virtual time, so a shift-capable generator's
// shift is baked into the accesses without a timestamp. Capture a live
// run (htiersim -record) when shift timing must survive replay.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"

	"repro/internal/experiments"
	"repro/internal/trace"
	"repro/internal/tracefile"
)

func main() {
	workload := flag.String("workload", "cdn", "workload name")
	ops := flag.Int64("ops", 10_000, "operations to emit")
	scaleFlag := flag.String("scale", "quick", "workload scale: quick or full")
	seed := flag.Uint64("seed", 1, "deterministic seed")
	format := flag.String("format", "csv", "output format: csv, bin (v1), or bin2 (columnar v2)")
	out := flag.String("o", "", "output path (default stdout; required for binary formats)")
	convert := flag.String("convert", "", "rewrite this trace file into the -format container and exit")
	flag.Parse()

	if *convert != "" {
		if *out == "" {
			fatal(fmt.Errorf("-convert needs -o for the destination"))
		}
		version := tracefile.Version2
		switch *format {
		case "bin2", "csv": // csv is the flag default; conversion targets v2 unless bin asked
			version = tracefile.Version2
		case "bin":
			version = tracefile.Version
		default:
			fatal(fmt.Errorf("-convert writes binary containers: want -format bin or bin2, not %q", *format))
		}
		if err := tracefile.Convert(*convert, *out, version); err != nil {
			fatal(err)
		}
		return
	}

	scale := experiments.Quick
	if *scaleFlag == "full" {
		scale = experiments.Full
	}
	w, err := scale.Workload(*workload, *seed)
	if err != nil {
		fatal(err)
	}

	switch *format {
	case "csv":
		dst := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fatal(err)
			}
			dst = f
		}
		if err := writeCSV(dst, w, *ops, *seed); err != nil {
			fatal(err)
		}
		if dst != os.Stdout {
			// A close-time write failure (quota, NFS flush) must not
			// leave a silently truncated file behind an exit status 0.
			if err := dst.Close(); err != nil {
				fatal(err)
			}
		}
	case "bin", "bin2":
		if *out == "" {
			fatal(fmt.Errorf("-format %s needs -o (binary traces don't go to a terminal)", *format))
		}
		version := tracefile.Version
		if *format == "bin2" {
			version = tracefile.Version2
		}
		if err := writeBinary(*out, w, *ops, *seed, version); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown -format %q (want csv, bin, or bin2)", *format))
	}
}

// writeCSV emits the legacy op,page,write dump.
func writeCSV(dst *os.File, w trace.Source, ops int64, seed uint64) error {
	out := bufio.NewWriterSize(dst, 1<<20)
	fmt.Fprintf(out, "# workload=%s pages=%d seed=%d\n", w.Name(), w.NumPages(), seed)
	fmt.Fprintln(out, "op,page,write")
	var buf []trace.Access
	for op := int64(0); op < ops; op++ {
		buf = w.NextOp(buf[:0])
		for _, a := range buf {
			out.WriteString(strconv.FormatInt(op, 10))
			out.WriteByte(',')
			out.WriteString(strconv.FormatUint(uint64(a.Page), 10))
			out.WriteByte(',')
			if a.Write {
				out.WriteString("1\n")
			} else {
				out.WriteString("0\n")
			}
		}
	}
	return out.Flush()
}

// writeBinary emits a trace file replayable via "trace:<path>".
func writeBinary(path string, w trace.Source, ops int64, seed uint64, version int) error {
	meta := tracefile.MetaOf(w, seed)
	// A generator dump has no virtual clock, so shifts cannot be
	// timestamped as marks; claiming shift-capability in the header would
	// misstate the content. Capture a live run to preserve shift marks.
	meta.Shift = false
	tw, err := tracefile.CreateVersion(path, meta, version)
	if err != nil {
		return err
	}
	var buf []trace.Access
	for op := int64(0); op < ops; op++ {
		buf = w.NextOp(buf[:0])
		if err := tw.WriteOp(buf); err != nil {
			tw.Close()
			return err
		}
	}
	return tw.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(2)
}
