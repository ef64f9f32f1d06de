package cliutil

import (
	"flag"
	"testing"

	"repro/internal/faultsearch"
)

func TestSearchFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	sf := RegisterSearch(fs)
	if sf.Active() {
		t.Error("search active before any flag")
	}
	if err := fs.Parse([]string{"-fault-search", "all", "-search-cell", "2:1:0", "-quick"}); err != nil {
		t.Fatal(err)
	}
	if !sf.Active() {
		t.Error("search inactive after -fault-search")
	}
	mapIdx, scIdx, rep, err := sf.ParseCell()
	if err != nil || mapIdx != 2 || scIdx != 1 || rep != 0 {
		t.Errorf("ParseCell = %d:%d:%d, %v", mapIdx, scIdx, rep, err)
	}
	if got := sf.Config(); got != faultsearch.QuickConfig() {
		t.Errorf("-quick config = %+v", got)
	}
	sf.Quick = false
	if got := sf.Config(); got != (faultsearch.Config{}) {
		t.Errorf("default config = %+v", got)
	}
}

func TestSearchFlagsBadCell(t *testing.T) {
	for _, bad := range []string{"", "4", "4:0", "a:b:c", "-1:0:0", "4:0:0junk", "4:0:0:1"} {
		sf := &SearchFlags{Cell: bad}
		if _, _, _, err := sf.ParseCell(); err == nil {
			t.Errorf("cell %q accepted", bad)
		}
	}
}
