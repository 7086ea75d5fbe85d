package repro.ann

import java.util.Arrays

import repro.embed.VecOps

/** Hierarchical Navigable Small World graphs (Malkov & Yashunin, 2020) —
  * the paper's ANN index (Section 3.3), implemented from scratch.
  *
  * Multi-layer proximity graph over Euclidean space. Insertion draws a level
  * from a geometric distribution, descends greedily through the upper
  * layers, then runs a beam search of width `efConstruction` on each layer at
  * or below the node's level and links the `m` closest results (level 0
  * allows `2m` links). Search descends greedily to layer 0 and runs a beam
  * of width `ef` there. Search cost is logarithmic in the index size, which
  * is what gives DeepJoin its sub-linear search time.
  *
  * Layout, after hnswlib: all vectors in one flat array; layer-0 lists in
  * one fixed-stride array; upper-layer lists in one array per node. A list
  * is a count followed by its ids, with one slot beyond the cap for the link
  * that triggers a re-prune. Every distance is [[repro.embed.VecOps.l2]]'s
  * arithmetic and the heaps order ties as `java.util.PriorityQueue` does, so
  * serial [[add]] builds the same graph as the boxed implementation it
  * replaced (DESIGN §8).
  *
  * Not thread-safe during construction; search is read-only and thread-safe
  * after construction.
  */
final class Hnsw(
    val dim: Int,
    val m: Int = 16,
    val efConstruction: Int = 200,
    seed: Long = 42L) extends Serializable {
  import Hnsw._

  private val mMax0 = 2 * m
  private val stride0 = mMax0 + 2 // count, 2m links, overflow slot
  private val strideUp = m + 2    // count, m links, overflow slot
  private val levelMult = 1.0 / math.log(m.toDouble)
  private val rnd = new java.util.Random(seed)

  private var n = 0
  private var vecs = new Array[Float](0)
  private var levels = new Array[Int](0)
  private var links0 = new Array[Int](0)
  // upper(node): levels 1..levels(node) at stride `strideUp`; null at level 0
  private var upper = new Array[Array[Int]](0)
  private var entry: Int = -1
  private var topLevel: Int = -1

  def size: Int = n
  def vector(i: Int): Array[Float] = {
    checkNode(i)
    Arrays.copyOfRange(vecs, i * dim, (i + 1) * dim)
  }

  /** Neighbor list of a node on a level (diagnostics/tests). */
  def neighbors(node: Int, level: Int): Array[Int] = {
    checkNode(node)
    if (level > levels(node)) Array.empty
    else {
      val a = linkArray(node, level); val b = linkBase(node, level)
      Arrays.copyOfRange(a, b + 1, b + 1 + a(b))
    }
  }

  /** Insert a vector; its id is the insertion index. Returns the id. */
  def add(v: Array[Float]): Int = {
    insert(IndexedSeq(v))
    n - 1
  }

  /** Insert vectors with ids `size until size + vs.length`, in deterministic
    * batches: after the first node, each batch holds min(nodes already
    * inserted, 32) nodes. Within a batch every node's descent, beam search
    * and neighbour selection run in parallel against the graph as it stood
    * when the batch started; links, re-pruning and entry-point updates then
    * apply serially in id order. The graph does not depend on the thread
    * count; a batch of one is [[add]].
    */
  def addAll(vs: IndexedSeq[Array[Float]]): Unit = insert(vs)

  /** kNN by Euclidean distance; `ef >= k` controls recall. `stats`, if
    * given, accumulates this search's counters.
    */
  def search(q: Array[Float], k: Int, ef: Int = 64,
             stats: SearchStats = null): Array[(Int, Float)] = {
    require(q.length == dim, s"dim mismatch: ${q.length} != $dim")
    if (entry < 0) return Array.empty
    val s = scratch.get()
    s.distances = 0L; s.visited = 0L
    var ep = entry
    var l = topLevel
    while (l > 0) { ep = greedyClosest(q, ep, l, s); l -= 1 }
    val found = searchLayer(q, ep, math.max(ef, k), 0, s)
    if (stats ne null) { stats.distances += s.distances; stats.visited += s.visited }
    Array.tabulate(math.min(k, found))(i => (s.outIds(i), s.outDist(i)))
  }

  /** Level histogram, out-degree per level and layer-0 reachability. */
  def health: Health = {
    val top = if (n == 0) -1 else levels.iterator.take(n).max
    val histogram = (0 to top).map(l => (0 until n).count(levels(_) == l))
    val degrees = (0 to top).map { l =>
      val ds = (0 until n).filter(levels(_) >= l).map(i => linkArray(i, l)(linkBase(i, l)))
      Degrees(ds.min, ds.sum.toDouble / ds.size, ds.max)
    }
    Health(histogram, degrees, n - reachableAtLayer0())
  }

  // ------------------------------------------------------------ insertion

  private def insert(vs: IndexedSeq[Array[Float]]): Unit = {
    vs.foreach(v => require(v.length == dim, s"dim mismatch: ${v.length} != $dim"))
    val start = n
    val total = n + vs.length
    reserve(total)
    var id = start
    while (id < total) {
      System.arraycopy(vs(id - start), 0, vecs, id * dim, dim)
      val lvl = drawLevel()
      levels(id) = lvl
      if (lvl > 0) upper(id) = new Array[Int](lvl * strideUp)
      id += 1
    }
    n = total

    var next = start
    if (entry < 0 && next < total) { entry = next; topLevel = levels(next); next += 1 }
    while (next < total) {
      val first = next
      val b = math.min(math.min(first, MaxBatch), total - first)
      val (ep, top) = (entry, topLevel)
      val selected = new Array[Array[Array[Int]]](b)
      def find(j: Int): Unit =
        selected(j) = findNeighbors(vs(first - start + j), first + j, ep, top, 0, scratch.get())
      if (b == 1) find(0)
      else java.util.stream.IntStream.range(0, b).parallel().forEach(j => find(j))
      val s = scratch.get()
      var j = 0
      while (j < b) {
        val id = first + j
        var sel = selected(j)
        if (levels(id) > top && topLevel > top) {
          // An earlier node of this batch opened layers above `top`; search
          // them now, in id order, so this node is linked there too.
          val above = findNeighbors(vs(id - start), id, entry, topLevel, top + 1, s)
          System.arraycopy(sel, 0, above, 0, sel.length)
          sel = above
        }
        link(id, sel, s)
        j += 1
      }
      next += b
    }
  }

  /** Grows the arrays to hold `total` nodes, to at least twice their
    * capacity; one [[addAll]] into an empty index allocates exactly `total`.
    */
  private def reserve(total: Int): Unit = {
    val cap = levels.length
    if (total > cap) {
      val c = math.max(total, 2 * cap)
      vecs = Arrays.copyOf(vecs, c * dim)
      levels = Arrays.copyOf(levels, c)
      links0 = Arrays.copyOf(links0, c * stride0)
      upper = Arrays.copyOf(upper, c)
    }
  }

  private def drawLevel(): Int = {
    val u = rnd.nextDouble()
    math.min(31, (-math.log(u + 1e-12) * levelMult).toInt)
  }

  /** The read-only half of an insertion: the neighbours node `id` (vector
    * `v`) selects on each layer min(level, top)..bottom, searching from
    * entry point `ep` of a graph whose top layer is `top`. Indexed by layer;
    * layers below `bottom` are left null.
    */
  private def findNeighbors(v: Array[Float], id: Int, ep0: Int, top: Int, bottom: Int,
                            s: Scratch): Array[Array[Int]] = {
    val lvl = levels(id)
    var ep = ep0
    var l = top
    while (l > lvl) { ep = greedyClosest(v, ep, l, s); l -= 1 }
    l = math.min(lvl, top)
    val out = new Array[Array[Int]](l + 1)
    while (l >= bottom) {
      val found = searchLayer(v, ep, efConstruction, l, s)
      val kept = select(s.outIds, s.outDist, found, m, s)
      out(l) = Arrays.copyOf(s.selIds, kept)
      if (found > 0) ep = s.outIds(0)
      l -= 1
    }
    out
  }

  /** The write half of an insertion: forward links, reverse links with
    * re-pruning, and the entry point.
    */
  private def link(id: Int, selected: Array[Array[Int]], s: Scratch): Unit = {
    var l = selected.length - 1
    while (l >= 0) {
      val sel = selected(l)
      val a = linkArray(id, l); val b = linkBase(id, l)
      System.arraycopy(sel, 0, a, b + 1, sel.length)
      a(b) = sel.length
      val cap = if (l == 0) mMax0 else m
      var i = 0
      while (i < sel.length) {
        val nid = sel(i)
        val na = linkArray(nid, l); val nb = linkBase(nid, l)
        na(nb) += 1
        na(nb + na(nb)) = id
        if (na(nb) > cap) shrink(nid, l, cap, s)
        i += 1
      }
      l -= 1
    }
    if (levels(id) > topLevel) { topLevel = levels(id); entry = id }
  }

  /** Re-prune a node's neighbor list with the selection heuristic. A list
    * never holds an id twice (a node is linked only by its own insertion),
    * so the candidates are the list itself, stably sorted by distance.
    */
  private def shrink(node: Int, level: Int, cap: Int, s: Scratch): Unit = {
    val a = linkArray(node, level); val b = linkBase(node, level)
    val cnt = a(b)
    s.reserveOut(cnt)
    var i = 0
    while (i < cnt) {
      val nid = a(b + 1 + i)
      val d = dist(node, nid)
      var j = i
      while (j > 0 && java.lang.Float.compare(s.outDist(j - 1), d) > 0) {
        s.outIds(j) = s.outIds(j - 1); s.outDist(j) = s.outDist(j - 1); j -= 1
      }
      s.outIds(j) = nid; s.outDist(j) = d
      i += 1
    }
    val kept = select(s.outIds, s.outDist, cnt, cap, s)
    System.arraycopy(s.selIds, 0, a, b + 1, kept)
    a(b) = kept
  }

  /** Neighbor-selection heuristic (Algorithm 4 of the HNSW paper): walk the
    * candidates in ascending distance to `q` and keep a candidate only if it
    * is closer to `q` than to every already-selected neighbor. This retains
    * long-range links between clusters, which plain closest-M selection
    * destroys (and with it, recall on clustered data). Candidates are
    * `ids(0 until cnt)` at distances `ds` to `q`; the kept ids go to
    * `s.selIds`, and their count is returned.
    */
  private def select(ids: Array[Int], ds: Array[Float], cnt: Int, cap: Int,
                     s: Scratch): Int = {
    if (s.selIds.length < cap) s.selIds = new Array[Int](cap)
    var kept = 0
    var c = 0
    while (c < cnt && kept < cap) {
      val e = ids(c)
      var good = true
      var i = 0
      while (good && i < kept) {
        if (dist(e, s.selIds(i)) < ds(c)) good = false
        i += 1
      }
      if (good) { s.selIds(kept) = e; kept += 1 }
      c += 1
    }
    kept
  }

  // --------------------------------------------------------------- search

  /** Greedy walk to the locally closest node on `level`. */
  private def greedyClosest(q: Array[Float], start: Int, level: Int, s: Scratch): Int = {
    var cur = start
    var curD = dist(q, cur)
    s.distances += 1
    var improved = true
    while (improved) {
      improved = false
      val a = linkArray(cur, level); val b = linkBase(cur, level)
      val cnt = a(b)
      s.visited += 1
      s.distances += cnt
      var i = 1
      while (i <= cnt) {
        val d = dist(q, a(b + i))
        if (d < curD) { curD = d; cur = a(b + i); improved = true }
        i += 1
      }
    }
    cur
  }

  /** Beam search of width `ef` on `level` from `ep`. Writes the results in
    * ascending distance to `s.outIds`/`s.outDist` and returns their count.
    */
  private def searchLayer(q: Array[Float], ep: Int, ef: Int, level: Int, s: Scratch): Int = {
    val visited = s.visitedFor(n)
    val epoch = s.epoch
    val cand = s.cand
    val res = s.res
    cand.clear(); res.clear()
    visited(ep) = epoch
    val d0 = dist(q, ep)
    s.distances += 1
    cand.add(ep, d0); res.add(ep, d0)
    while (cand.size > 0) {
      val c = cand.topId
      val cd = cand.topDist
      cand.poll()
      if (res.size >= ef && cd > res.topDist) {
        cand.clear() // nothing closer can be found
      } else {
        val a = linkArray(c, level); val b = linkBase(c, level)
        val cnt = a(b)
        s.visited += 1
        var i = 1
        while (i <= cnt) {
          val nid = a(b + i)
          if (visited(nid) != epoch) {
            visited(nid) = epoch
            val d = dist(q, nid)
            s.distances += 1
            if (res.size < ef || d < res.topDist) {
              cand.add(nid, d); res.add(nid, d)
              if (res.size > ef) res.poll()
            }
          }
          i += 1
        }
      }
    }
    val found = res.size
    s.reserveOut(found)
    var j = found - 1
    while (j >= 0) { s.outIds(j) = res.topId; s.outDist(j) = res.topDist; res.poll(); j -= 1 }
    found
  }

  // -------------------------------------------------------------- storage

  private def linkArray(node: Int, level: Int): Array[Int] =
    if (level == 0) links0 else upper(node)

  private def linkBase(node: Int, level: Int): Int =
    if (level == 0) node * stride0 else (level - 1) * strideUp

  private def dist(q: Array[Float], node: Int): Float = VecOps.l2(q, 0, vecs, node * dim, dim)

  private def dist(x: Int, y: Int): Float = VecOps.l2(vecs, x * dim, vecs, y * dim, dim)

  private def checkNode(i: Int): Unit =
    if (i < 0 || i >= n) throw new IndexOutOfBoundsException(s"node $i of $n")

  /** Nodes reached by a breadth-first walk of layer 0 from the entry point. */
  private def reachableAtLayer0(): Int = {
    if (entry < 0) return 0
    val seen = new Array[Boolean](n)
    val queue = new Array[Int](n)
    var head = 0
    var tail = 1
    queue(0) = entry; seen(entry) = true
    while (head < tail) {
      val c = queue(head); head += 1
      val b = c * stride0
      var i = 1
      while (i <= links0(b)) {
        val nid = links0(b + i)
        if (!seen(nid)) { seen(nid) = true; queue(tail) = nid; tail += 1 }
        i += 1
      }
    }
    tail
  }
}

object Hnsw {
  /** Batch size cap of [[Hnsw.addAll]]. */
  private val MaxBatch = 32

  /** Work counters of searches: distance evaluations, and nodes visited,
    * i.e. whose neighbour lists were read (greedy hops plus beam
    * expansions). Both are deterministic for a given graph and query.
    */
  final class SearchStats {
    var distances: Long = 0L
    var visited: Long = 0L
  }

  /** Out-degree of the nodes present on one level. */
  final case class Degrees(min: Int, mean: Double, max: Int)

  /** `levels(l)`: nodes whose top level is l. `degrees(l)`: out-degrees on
    * level l. `unreachable`: layer-0 nodes a walk from the entry point
    * misses. `unreachable == 0` does not make a search with ef ≥ n
    * exhaustive: layer 0 is a directed graph, and search enters it at the
    * node where the greedy descent through the upper layers ends, not at
    * the entry point. Only a strongly connected layer 0 guarantees it.
    */
  final case class Health(levels: IndexedSeq[Int], degrees: IndexedSeq[Degrees],
                          unreachable: Int)

  /** Binary heap of (id, distance) with `java.util.PriorityQueue`'s exact
    * siftUp/siftDown/poll and `Float.compare` order, so exactly tied
    * distances pop in the same order as a `PriorityQueue` of pairs.
    * `max` makes the largest distance the top.
    */
  private final class Heap(max: Boolean) {
    private var ids = new Array[Int](64)
    private var ds = new Array[Float](64)
    var size = 0

    def topId: Int = ids(0)
    def topDist: Float = ds(0)
    def clear(): Unit = size = 0

    private def cmp(a: Float, b: Float): Int =
      if (max) java.lang.Float.compare(b, a) else java.lang.Float.compare(a, b)

    def add(id: Int, d: Float): Unit = {
      if (size == ids.length) {
        ids = Arrays.copyOf(ids, 2 * size); ds = Arrays.copyOf(ds, 2 * size)
      }
      var k = size
      size += 1
      var go = true
      while (go && k > 0) {
        val parent = (k - 1) >>> 1
        if (cmp(d, ds(parent)) >= 0) go = false
        else { ids(k) = ids(parent); ds(k) = ds(parent); k = parent }
      }
      ids(k) = id; ds(k) = d
    }

    /** Removes the top. */
    def poll(): Unit = {
      size -= 1
      val cnt = size
      if (cnt > 0) {
        val id = ids(cnt); val d = ds(cnt)
        var k = 0
        val half = cnt >>> 1
        var go = true
        while (go && k < half) {
          var child = (k << 1) + 1
          val right = child + 1
          if (right < cnt && cmp(ds(child), ds(right)) > 0) child = right
          if (cmp(d, ds(child)) <= 0) go = false
          else { ids(k) = ids(child); ds(k) = ds(child); k = child }
        }
        ids(k) = id; ds(k) = d
      }
    }
  }

  /** Per-thread search state, reused across calls and indexes: an
    * epoch-stamped visited array, the two heaps, the sorted beam output and
    * the selection buffer.
    */
  private final class Scratch {
    private var visitedStamps = new Array[Int](0)
    var epoch = 0
    val cand = new Heap(max = false)
    val res = new Heap(max = true)
    var outIds = new Array[Int](64)
    var outDist = new Array[Float](64)
    var selIds = new Array[Int](0)
    var distances = 0L
    var visited = 0L

    /** The visited array for a graph of `n` nodes, under a fresh epoch. */
    def visitedFor(n: Int): Array[Int] = {
      if (visitedStamps.length < n)
        visitedStamps = new Array[Int](math.max(n, 2 * visitedStamps.length))
      if (epoch == Int.MaxValue) { Arrays.fill(visitedStamps, 0); epoch = 0 }
      epoch += 1
      visitedStamps
    }

    def reserveOut(cnt: Int): Unit =
      if (outIds.length < cnt) {
        outIds = new Array[Int](math.max(cnt, 2 * outIds.length))
        outDist = new Array[Float](outIds.length)
      }
  }

  private val scratch = ThreadLocal.withInitial[Scratch](() => new Scratch)
}
