package suppress

import (
	"fmt"
	"testing"
)

// cellOfSscanf is cellOf as it was written with fmt.Sscanf.
func cellOfSscanf(s string) (i, j int, ok bool) {
	if n, _ := fmt.Sscanf(s, "r%dc%d", &i, &j); n != 2 || i < 0 || j < 0 {
		return 0, 0, false
	}
	return i, j, cellName(i, j) == s
}

// TestCellOfMatchesSscanf: cellOf's strconv form agrees with the Sscanf
// form, on whether s names a cell and then on which, for canonical names,
// signs, leading zeros, trailing data, missing numbers and the
// generator's level names.
func TestCellOfMatchesSscanf(t *testing.T) {
	names := []string{
		"r0c0", "r01c2", "r-1c2", "r+1c2", "r1c2x", "rc", "r1c", "rc1", "r1", "c1", "r", "", "R1c2", "r1C2",
		"r1c-2", "r1c+2", "r1c02", "r 1c2", "r1 c2", "r1c2 ", "r1c2c3", "r12c34", "r99999999999999999999c1",
		"x r1c2", "r1_0c2", "r0x1c2",
	}
	names = append(names, genLevelNames...)
	for i := 0; i < 70; i += 7 {
		for j := 0; j < 70; j += 9 {
			names = append(names, cellName(i, j))
		}
	}
	for _, s := range names {
		i, j, ok := cellOf(s)
		wi, wj, wok := cellOfSscanf(s)
		if ok != wok || ok && (i != wi || j != wj) {
			t.Errorf("cellOf(%q) = %d, %d, %v; the Sscanf form gives %d, %d, %v", s, i, j, ok, wi, wj, wok)
		}
	}
}

// TestCellNamesShareOneString: cellNames holds every cell name row-major,
// and Compile's windows of it are the names cellName writes.
func TestCellNamesShareOneString(t *testing.T) {
	for _, dims := range [][2]int{{2, 2}, {9, 12}, {20, 21}, {64, 64}} {
		rows, cols := dims[0], dims[1]
		names := cellNames(rows, cols)
		at := 0
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				want := cellName(i, j)
				if got := names[at : at+cellNameLen(i, j)]; got != want {
					t.Fatalf("%dx%d: cell (%d,%d) reads %q, want %q", rows, cols, i, j, got, want)
				}
				at += len(want)
			}
		}
		if at != len(names) {
			t.Fatalf("%dx%d: %d bytes of names, cells use %d", rows, cols, len(names), at)
		}
	}
}
