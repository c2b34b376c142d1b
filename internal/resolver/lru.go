package resolver

// lru is the recency list and index behind Stub and Cache: an intrusive,
// index-linked doubly linked list whose nodes live by value in one slice,
// a map from key to node index, and a free list of vacated nodes. Keys
// are name symbols (zonedb.Name.ID), so a lookup hashes one int32, never
// a host string. Once the node slice and the map have grown to the
// working set, promoting, replacing and evicting entries allocate
// nothing.
type lru[V any] struct {
	capacity   int // <= 0: unbounded
	index      map[int32]int32
	nodes      []lruNode[V]
	head, tail int32 // most and least recently used; nilNode when empty
	free       int32 // first vacated node, chained through next
}

type lruNode[V any] struct {
	key        int32
	val        V
	prev, next int32
}

const nilNode int32 = -1

func newLRU[V any](capacity int) lru[V] {
	return lru[V]{
		capacity: capacity,
		index:    make(map[int32]int32),
		head:     nilNode,
		tail:     nilNode,
		free:     nilNode,
	}
}

func (l *lru[V]) len() int { return len(l.index) }

// find returns the index of key's node and its stored value, without
// promoting it.
func (l *lru[V]) find(key int32) (int32, *V, bool) {
	i, ok := l.index[key]
	if !ok {
		return nilNode, nil, false
	}
	return i, &l.nodes[i].val, true
}

// put stores v under key as the most recently used entry, replacing any
// previous value. When a new key would exceed the capacity, the least
// recently used entry is evicted first; put reports whether that
// happened.
func (l *lru[V]) put(key int32, v V) (evicted bool) {
	if i, ok := l.index[key]; ok {
		l.nodes[i].val = v
		l.touch(i)
		return false
	}
	if l.capacity > 0 && len(l.index) >= l.capacity {
		l.remove(l.tail)
		evicted = true
	}
	i := l.free
	if i != nilNode {
		l.free = l.nodes[i].next
	} else {
		i = int32(len(l.nodes))
		l.nodes = append(l.nodes, lruNode[V]{})
	}
	l.nodes[i] = lruNode[V]{key: key, val: v, prev: nilNode, next: nilNode}
	l.index[key] = i
	l.linkFront(i)
	return evicted
}

// touch makes node i the most recently used.
func (l *lru[V]) touch(i int32) {
	if l.head == i {
		return
	}
	l.unlink(i)
	l.linkFront(i)
}

// remove drops node i from the list and the index and recycles it.
func (l *lru[V]) remove(i int32) {
	l.unlink(i)
	delete(l.index, l.nodes[i].key)
	l.nodes[i] = lruNode[V]{next: l.free} // release the key and value
	l.free = i
}

func (l *lru[V]) unlink(i int32) {
	n := &l.nodes[i]
	if n.prev != nilNode {
		l.nodes[n.prev].next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nilNode {
		l.nodes[n.next].prev = n.prev
	} else {
		l.tail = n.prev
	}
}

func (l *lru[V]) linkFront(i int32) {
	n := &l.nodes[i]
	n.prev, n.next = nilNode, l.head
	if l.head != nilNode {
		l.nodes[l.head].prev = i
	} else {
		l.tail = i
	}
	l.head = i
}
