package csvfile

import (
	"bytes"
	"testing"
)

// refSkipField, refSkipFields and refSkipRow are the byte-at-a-time skips the
// word-at-a-time ones replaced, kept as the oracle they must agree with.
func refSkipField(data []byte, pos int) int {
	for pos < len(data) {
		c := data[pos]
		pos++
		if c == Delim || c == '\n' {
			return pos
		}
	}
	return pos
}

func refSkipFields(data []byte, pos, n int) int {
	for k := 0; k < n; k++ {
		pos = refSkipField(data, pos)
	}
	return pos
}

func refSkipRow(data []byte, pos int) int {
	for pos < len(data) {
		if data[pos] == '\n' {
			return pos + 1
		}
		pos++
	}
	return pos
}

// checkSkips compares both skips with the reference at every start position
// (so every alignment of pos mod 8, and every distance from the end of the
// file) and for every count up to two past the fields that remain.
func checkSkips(t *testing.T, data []byte) {
	t.Helper()
	maxN := bytes.Count(data, []byte{Delim}) + bytes.Count(data, []byte{'\n'}) + 3
	for pos := 0; pos <= len(data)+1; pos++ {
		if got, want := SkipRow(data, pos), refSkipRow(data, pos); got != want {
			t.Fatalf("SkipRow(%q, %d) = %d, reference %d", data, pos, got, want)
		}
		for n := -1; n <= maxN; n++ {
			if got, want := SkipFields(data, pos, n), refSkipFields(data, pos, n); got != want {
				t.Fatalf("SkipFields(%q, %d, %d) = %d, reference %d", data, pos, n, got, want)
			}
		}
	}
}

func TestSkipFieldsAgainstReference(t *testing.T) {
	cases := []string{
		"",
		"\n",
		",",
		",,",
		",,\n,,\n",
		"1,2\n",                  // a row shorter than one word
		"1,2\n3,4\n5,6\n7,8\n9",  // several rows per word, no trailing newline
		"1234567,\n",             // delimiter in the last lane of a word
		"12345678,\n",            // delimiter in the first lane of the next
		"1234567\n12345678\n123", // newline on either side of a word boundary
		"123456789012345678901234567890,1\n",
		"10,200,3000,40000,500000,6000000,70000000\n1,,2,,3,,4\n",
		"a,b,c,d,e,f,g,h,i,j,k,l,m,n,o,p,q,r,s,t",
		// Look-alikes next to real delimiters: ',' with bit 7 set (0xAC),
		// '\n' with bit 7 set (0x8A), and the bytes one above each (0x2D,
		// 0x0B). A borrow-based zero-byte test reports the lane above a real
		// match when it holds delimiter+1, and a 7-bit one reports 0xAC/0x8A.
		",\x2d,\x2d\n\x0b\n\x0b,\xac\n\x8a,",
		"\x2d,\x0b\n\xac,\x8a\n",
		"\xac\xac\xac\xac\xac\xac\xac\xac,\x8a\x8a\x8a\x8a\x8a\x8a\x8a\x8a\n",
		"\x2d\x2d\x2d\x2d\x2d\x2d\x2d,\x0b\x0b\x0b\x0b\x0b\x0b\x0b\n",
		",\x2d\x2d\x2d\x2d\x2d\x2d\x2d\n\x0b\x0b\x0b\x0b\x0b\x0b\x0b",
		"\x00,\xff\n\x2b,\x09\n\x80\x80,",
	}
	for _, c := range cases {
		checkSkips(t, []byte(c))
	}
}

// FuzzSkipFields is the differential of the word-at-a-time skips against the
// byte-at-a-time reference on arbitrary bytes, start positions and counts.
func FuzzSkipFields(f *testing.F) {
	f.Add([]byte("1,2,3\n4,5,6\n"), 0, 3)
	f.Add([]byte(",,\n,,"), 1, 9)
	f.Add([]byte("1,2"), 0, 5)
	f.Add([]byte("\xac,\x8a\n\x2d,\x0b\n"), 3, 2)
	f.Add(bytes.Repeat([]byte("123456789,"), 30), 7, 27)
	f.Fuzz(func(t *testing.T, data []byte, pos, n int) {
		if pos < 0 {
			pos = -(pos + 1)
		}
		pos %= len(data) + 2
		n %= 64
		if got, want := SkipFields(data, pos, n), refSkipFields(data, pos, n); got != want {
			t.Fatalf("SkipFields(%q, %d, %d) = %d, reference %d", data, pos, n, got, want)
		}
		if got, want := SkipRow(data, pos), refSkipRow(data, pos); got != want {
			t.Fatalf("SkipRow(%q, %d) = %d, reference %d", data, pos, got, want)
		}
	})
}
