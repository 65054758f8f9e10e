package koko

import (
	"reflect"
	"testing"
)

func TestBuildPlacement(t *testing.T) {
	nodes := []string{"http://a", "http://b", "http://c"}

	p := BuildPlacement(4, nodes, 2)
	want := [][]string{
		{"http://a", "http://b"},
		{"http://b", "http://c"},
		{"http://c", "http://a"},
		{"http://a", "http://b"},
	}
	if !reflect.DeepEqual(p.Replicas, want) {
		t.Fatalf("round-robin placement = %v, want %v", p.Replicas, want)
	}
	if p.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", p.NumShards())
	}
	if err := p.Validate(4); err != nil {
		t.Fatalf("valid placement rejected: %v", err)
	}
	if err := p.Validate(3); err == nil {
		t.Fatal("shard-count mismatch accepted")
	}
	if err := (Placement{Replicas: [][]string{{"http://a"}, nil}}).Validate(2); err == nil {
		t.Fatal("empty replica list accepted")
	}

	// Replication factor clamps to [1, len(nodes)].
	if got := BuildPlacement(2, nodes, 0).Replicas[0]; len(got) != 1 {
		t.Errorf("replicas=0 clamped to %d nodes, want 1", len(got))
	}
	if got := BuildPlacement(2, nodes, 9).Replicas[0]; len(got) != len(nodes) {
		t.Errorf("replicas=9 clamped to %d nodes, want %d", len(got), len(nodes))
	}
}
