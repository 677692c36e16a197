package topo

// XCoord returns (x_{i+1..h}) for a level-i node: the subtree digits.
func (ft *FatTree) XCoord(n NodeID) []int { return ft.xcoord[n] }

// NumParents reports the number of up-links of node n.
func (ft *FatTree) NumParents(n NodeID) int { return len(ft.upPorts[n]) }
