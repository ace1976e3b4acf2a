package cluster

// Placement maps every operator instance of a job onto a node, identically
// on every node of the cluster: instance p of any operator runs on node
// p % N over the SORTED node list. The rule has two load-bearing
// consequences:
//
//   - Storage alignment. A node with sorted-rank k owns exactly the storage
//     partitions p with nodeOf(p) == k (its instance's OwnsPartition), and a
//     scan or secondary-index operator's instance p reads storage partition
//     p — so every data-access instance lands on the node that physically
//     holds its partition, and no base data ever crosses the wire unshuffled.
//
//   - Fusion stays legal. Operators joined by a OneToOne connector have
//     equal parallelism, so instance p of both sides maps to the same node;
//     one-to-one edges therefore never cross nodes and FuseJob's collapsed
//     chains execute unchanged. Only shuffle/merge/replicate edges go remote.
//
// Parallelism-1 operators (global aggregates, the final merge/sort, metadata
// scans) pin to node 0 (0 % N).
type placement struct {
	nodes int
}

// nodeOf returns the sorted-rank of the node running instance p.
func (pl placement) nodeOf(p int) int { return p % pl.nodes }

// hasInstance reports whether node rank t runs any instance of an operator
// with the given parallelism: instance p = t exists iff t < par.
func (pl placement) hasInstance(t, par int) bool { return t < par }
