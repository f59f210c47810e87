package service

import "testing"

func TestParseMeshExplicit(t *testing.T) {
	m, err := ParseMesh("3x2", "mesh", 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m.W() != 3 || m.H() != 2 {
		t.Fatalf("mesh = %dx%d", m.W(), m.H())
	}
}

func TestParseMeshAuto(t *testing.T) {
	cases := []struct{ cores, w, h int }{
		{4, 2, 2},
		{5, 3, 2},
		{9, 3, 3},
		{10, 4, 3},
		{1, 1, 1},
	}
	for _, tc := range cases {
		m, err := ParseMesh("", "mesh", 0, tc.cores)
		if err != nil {
			t.Fatalf("cores %d: %v", tc.cores, err)
		}
		if m.W() != tc.w || m.H() != tc.h {
			t.Errorf("cores %d: mesh %dx%d, want %dx%d", tc.cores, m.W(), m.H(), tc.w, tc.h)
		}
		if m.NumTiles() < tc.cores {
			t.Errorf("cores %d: mesh too small", tc.cores)
		}
	}
}

func TestParseMesh3D(t *testing.T) {
	m, err := ParseMesh("2x3x4", "mesh", 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m.W() != 2 || m.H() != 3 || m.D() != 4 {
		t.Fatalf("mesh = %dx%dx%d", m.W(), m.H(), m.D())
	}
	// -depth stacks a planar spec...
	m, err = ParseMesh("2x2", "torus", 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m.D() != 4 || m.Kind().String() != "torus" {
		t.Fatalf("mesh = %dx%dx%d %s", m.W(), m.H(), m.D(), m.Kind())
	}
	// ...and must agree with an explicit WxHxD spec.
	if _, err := ParseMesh("2x2x2", "mesh", 4, 5); err == nil {
		t.Fatal("conflicting -depth accepted")
	}
	if _, err := ParseMesh("2x2", "klein-bottle", 0, 4); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

func TestParseMeshAutoWithDepth(t *testing.T) {
	// Auto-sizing spreads the cores over the requested layers instead of
	// replicating a full planar grid per layer: 16 cores at depth 4 fit a
	// 2x2x4 (16 tiles), not a 4x4x4.
	m, err := ParseMesh("", "mesh", 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	if m.W() != 2 || m.H() != 2 || m.D() != 4 {
		t.Fatalf("mesh = %dx%dx%d, want 2x2x4", m.W(), m.H(), m.D())
	}
	// Non-dividing core counts still fit: 10 cores over 4 layers needs
	// 3 per layer -> 2x2 layers, 16 tiles.
	m, err = ParseMesh("", "mesh", 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumTiles() < 10 || m.D() != 4 {
		t.Fatalf("mesh = %dx%dx%d does not fit 10 cores over 4 layers", m.W(), m.H(), m.D())
	}
}

func TestParseMeshErrors(t *testing.T) {
	for _, spec := range []string{"3", "ax2", "3xb", "0x4", "4x4junk", "2x2x4.5", " 2x2", "2x2x2x2"} {
		if _, err := ParseMesh(spec, "mesh", 0, 2); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
	if _, err := ParseMesh("2x2", "mesh", 0, 5); err == nil {
		t.Error("oversubscribed mesh accepted")
	}
}
