package main

import (
	"fmt"
	"io"
	"strings"
)

// node is one line of the cost ledger: a layer, how often it ran, how long
// it was busy, and what is left once its measured children are subtracted.
// Span-sourced nodes were timed in place by the benchmark's wrappers;
// ladder-sourced nodes are a per-call cost measured on a replica (ladder.go)
// multiplied by how often the parent makes that call.
type node struct {
	Name   string  `json:"name"`
	Source string  `json:"source"` // "span", "ladder" or "sum"
	Count  int     `json:"count"`
	BusyMs float64 `json:"busy_ms"`
	// SelfMs is BusyMs minus the children's BusyMs: the layer's own work
	// plus whatever the ledger failed to attribute.
	SelfMs float64 `json:"self_ms"`
	// ShareOfParent is BusyMs over the parent's BusyMs (1 for the root).
	ShareOfParent float64 `json:"share_of_parent"`
	// UnexplainedPct is SelfMs as a percentage of BusyMs, printed for every
	// node that has children; the target is below 10.
	UnexplainedPct *float64 `json:"unexplained_pct,omitempty"`
	Children       []*node  `json:"children,omitempty"`
}

func spanNode(name string, a *spanAgg, children ...*node) *node {
	n := &node{Name: name, Source: "span", Children: children}
	if a != nil {
		n.Count = a.Count
		n.BusyMs = float64(a.BusyNs) / 1e6
	}
	return n
}

// ladderNode prices `count` calls at perCallMs each.
func ladderNode(name string, count int, perCallMs float64, children ...*node) *node {
	return &node{Name: name, Source: "ladder", Count: count, BusyMs: float64(count) * perCallMs, Children: children}
}

// sumNode is a grouping whose busy time is the sum of its children.
func sumNode(name string, count int, children ...*node) *node {
	n := &node{Name: name, Source: "sum", Count: count, Children: children}
	for _, c := range children {
		n.BusyMs += c.BusyMs
	}
	return n
}

// finish fills SelfMs, ShareOfParent and UnexplainedPct down the tree.
func (n *node) finish() {
	n.finishUnder(n.BusyMs)
}

func (n *node) finishUnder(parentBusy float64) {
	if parentBusy > 0 {
		n.ShareOfParent = n.BusyMs / parentBusy
	}
	var kids float64
	for _, c := range n.Children {
		c.finishUnder(n.BusyMs)
		kids += c.BusyMs
	}
	n.SelfMs = n.BusyMs - kids
	if len(n.Children) > 0 && n.BusyMs > 0 {
		u := 100 * n.SelfMs / n.BusyMs
		n.UnexplainedPct = &u
	}
}

// find returns the first node called name, depth first, or nil.
func (n *node) find(name string) *node {
	if n.Name == name {
		return n
	}
	for _, c := range n.Children {
		if f := c.find(name); f != nil {
			return f
		}
	}
	return nil
}

// unexplained returns the node's UnexplainedPct, 0 when it has none.
func (n *node) unexplained(name string) float64 {
	if f := n.find(name); f != nil && f.UnexplainedPct != nil {
		return *f.UnexplainedPct
	}
	return 0
}

func (n *node) print(w io.Writer, depth int) {
	line := fmt.Sprintf("%s%-*s %8d x %12.3f ms busy %12.3f ms self %6.1f%% of parent",
		strings.Repeat("  ", depth), 34-2*depth, n.Name, n.Count, n.BusyMs, n.SelfMs, 100*n.ShareOfParent)
	if n.UnexplainedPct != nil {
		line += fmt.Sprintf("  unexplained %5.1f%%", *n.UnexplainedPct)
	}
	fmt.Fprintf(w, "%s  [%s]\n", line, n.Source)
	for _, c := range n.Children {
		c.print(w, depth+1)
	}
}
