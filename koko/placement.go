package koko

import "fmt"

// Placement maps each shard of a corpus to the worker nodes that can serve
// it, in preference order. It is the routing table of distributed
// execution: a coordinator evaluates shard i by asking Replicas[i][0]
// first and falling through the rest on failure.
type Placement struct {
	// Replicas[i] lists the base URLs of the nodes holding shard i.
	Replicas [][]string `json:"replicas"`
}

// NumShards returns how many shards the placement covers.
func (p Placement) NumShards() int { return len(p.Replicas) }

// Validate checks that the placement covers exactly `shards` shards and
// every shard has at least one replica.
func (p Placement) Validate(shards int) error {
	if len(p.Replicas) != shards {
		return fmt.Errorf("koko: placement covers %d shards, corpus has %d", len(p.Replicas), shards)
	}
	for i, r := range p.Replicas {
		if len(r) == 0 {
			return fmt.Errorf("koko: placement shard %d has no replicas", i)
		}
	}
	return nil
}

// BuildPlacement assigns shards to nodes round-robin with the given
// replication factor: shard i's primary is nodes[i % len(nodes)] and its
// replicas the following nodes in ring order. replicas is clamped to
// [1, len(nodes)].
func BuildPlacement(shards int, nodes []string, replicas int) Placement {
	if replicas < 1 {
		replicas = 1
	}
	if replicas > len(nodes) {
		replicas = len(nodes)
	}
	p := Placement{Replicas: make([][]string, shards)}
	for i := 0; i < shards; i++ {
		r := make([]string, 0, replicas)
		for k := 0; k < replicas; k++ {
			r = append(r, nodes[(i+k)%len(nodes)])
		}
		p.Replicas[i] = r
	}
	return p
}
