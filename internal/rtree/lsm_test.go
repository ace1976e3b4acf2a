package rtree

import (
	"bytes"
	"testing"
)

func TestEntryKeyRoundTrip(t *testing.T) {
	r := Rect{MinX: -1.5, MinY: 2.25, MaxX: 3, MaxY: 4e10}
	pk := []byte("pk-bytes")
	key := EncodeEntryKey(r, pk)
	gotR, gotPK, err := DecodeEntryKey(key)
	if err != nil {
		t.Fatal(err)
	}
	if gotR != r || !bytes.Equal(gotPK, pk) {
		t.Fatalf("round trip = %+v %q", gotR, gotPK)
	}
	if _, _, err := DecodeEntryKey(key[:10]); err == nil {
		t.Fatal("short key decoded without error")
	}
}
