package main

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// Path independence of the hardware tools' figures: a small hil-maxn
// campaign (hilbench) and a small field campaign (fieldtest), both under
// the gps fault preset, flown four ways — fresh, resumed from a journal
// that holds a strict subset of the runs including run 0, served over
// 127.0.0.1 to one -join worker, and printed again with -merge from the
// served -out file. The Table III resource lines and §V-C's
// landing-error, GPS-drift and CPU/RAM lines are identical on all four
// paths; the Fig. 7 table, the CSV bytes and the fault timeline are
// identical fresh and resumed. The test builds both binaries.

// tool is one hardware tool under test: its grid flags and the stdout
// lines that carry its figures.
type tool struct {
	name    string
	grid    []string
	figures func(line string) bool
	// local are the flags only a locally flown campaign takes.
	local func(dir string) []string
}

var hardwareTools = []tool{
	{
		name: "hilbench",
		grid: []string{"-maps", "1", "-scenarios", "3", "-faults", "gps"},
		figures: func(line string) bool {
			return strings.HasPrefix(line, "Resource summary") || strings.HasPrefix(line, "  mean CPU")
		},
		local: func(string) []string { return nil },
	},
	{
		name: "fieldtest",
		grid: []string{"-runs", "4", "-faults", "gps"},
		figures: func(line string) bool {
			for _, p := range []string{"  mean landing error:", "  mean max GPS drift:", "  mean CPU"} {
				if strings.HasPrefix(line, p) {
					return true
				}
			}
			return false
		},
		local: func(dir string) []string { return []string{"-resources", "-csv", filepath.Join(dir, "f.csv")} },
	},
}

func TestFiguresPathIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("builds hilbench and fieldtest and flies each campaign four ways")
	}
	bin := t.TempDir()
	for _, tl := range hardwareTools {
		build := exec.Command("go", "build", "-o", filepath.Join(bin, tl.name), "repro/cmd/"+tl.name)
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", tl.name, err, out)
		}
	}

	for _, tl := range hardwareTools {
		t.Run(tl.name, func(t *testing.T) {
			exe := filepath.Join(bin, tl.name)
			run := func(args ...string) string {
				t.Helper()
				cmd := exec.Command(exe, args...)
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("%s %s: %v\n%s", tl.name, strings.Join(args, " "), err, stderr.String())
				}
				return string(out)
			}
			with := func(extra ...string) []string {
				return append(append([]string{}, tl.grid...), extra...)
			}

			// Fresh, writing a journal of every run.
			freshDir, resumedDir := t.TempDir(), t.TempDir()
			journal := filepath.Join(t.TempDir(), "journal")
			fresh := run(with(append([]string{"-workers", "2", "-checkpoint", journal}, tl.local(freshDir)...)...)...)

			// Resumed: keep the journal's header and runs 0 and 2 only.
			keepRuns(t, journal, 0, 2)
			resumed := run(with(append([]string{"-workers", "2", "-checkpoint", journal}, tl.local(resumedDir)...)...)...)
			if !strings.Contains(resumed, "resuming with 2/") {
				t.Fatalf("the rerun did not resume from the trimmed journal:\n%s", resumed)
			}

			// Served to one worker, and printed again from the -out file.
			addr := freeAddr(t)
			out := filepath.Join(t.TempDir(), "result.json")
			serve := exec.Command(exe, with("-serve", addr, "-out", out)...)
			var served bytes.Buffer
			serve.Stdout = &served
			if err := serve.Start(); err != nil {
				t.Fatal(err)
			}
			waitListening(t, addr)
			run("-join", "http://"+addr, "-workers", "2")
			if err := serve.Wait(); err != nil {
				t.Fatalf("%s -serve: %v", tl.name, err)
			}
			merged := run("-merge", out)

			want := figureLines(fresh, tl.figures)
			if len(want) == 0 {
				t.Fatalf("fresh run printed no figure lines:\n%s", fresh)
			}
			for path, stdout := range map[string]string{"resumed": resumed, "served": served.String(), "merged": merged} {
				if got := figureLines(stdout, tl.figures); strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Errorf("%s figures differ from fresh:\n got %q\nwant %q", path, got, want)
				}
			}

			// The re-flown figures: fault timeline, Fig. 7 table and CSV.
			if a, b := reflownLines(fresh), reflownLines(resumed); a == "" || a != b {
				t.Errorf("fault timeline / Fig. 7 differ fresh and resumed:\nfresh:\n%s\nresumed:\n%s", a, b)
			}
			if tl.name == "fieldtest" {
				a, errA := os.ReadFile(filepath.Join(freshDir, "f.csv"))
				b, errB := os.ReadFile(filepath.Join(resumedDir, "f.csv"))
				if errA != nil || errB != nil || len(a) == 0 || !bytes.Equal(a, b) {
					t.Errorf("Fig. 7 CSV differs fresh and resumed (%v, %v):\n%s\n%s", errA, errB, a, b)
				}
			}
		})
	}
}

// keepRuns rewrites a checkpoint journal to its header and the entries
// of the given run indices.
func keepRuns(t *testing.T, path string, runs ...int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	kept := lines[0]
	for _, line := range lines[1:] {
		var entry struct {
			I int `json:"i"`
		}
		if json.Unmarshal([]byte(line), &entry) != nil {
			continue
		}
		for _, r := range runs {
			if entry.I == r {
				kept += line
			}
		}
	}
	if err := os.WriteFile(path, []byte(kept), 0o644); err != nil {
		t.Fatal(err)
	}
}

// figureLines returns stdout's figure lines in order.
func figureLines(stdout string, figure func(string) bool) []string {
	var out []string
	for _, line := range strings.Split(stdout, "\n") {
		if figure(line) {
			out = append(out, line)
		}
	}
	return out
}

// reflownLines returns the fault timeline and Fig. 7 table of stdout:
// every block that starts at a "fault timeline" or "Fig. 7" heading, up
// to the next blank line or unindented non-event line.
func reflownLines(stdout string) string {
	var b strings.Builder
	in := false
	for _, line := range strings.Split(stdout, "\n") {
		switch {
		case strings.HasPrefix(line, "fault timeline") || strings.HasPrefix(line, "Fig. 7 — "):
			in = true
		case line == "" || (!strings.HasPrefix(line, "t=") && !strings.HasPrefix(line, " ")):
			in = false
		}
		if in {
			b.WriteString(line + "\n")
		}
	}
	return b.String()
}

// freeAddr reserves an ephemeral loopback port and releases it for the
// coordinator to claim.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// waitListening blocks until addr accepts connections.
func waitListening(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			conn.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never listened on %s", addr)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
