package repro.ann

import repro.embed.VecOps
import scala.collection.mutable

/** Test oracle: [[Hnsw]] as it was before its flat primitive layout — one
  * `Array[Float]` per vector, growable neighbour lists, a `HashSet[Integer]`
  * visited set and `java.util.PriorityQueue`s of boxed `(Int, Float)` pairs.
  * The code is kept verbatim (only comments are dropped), so
  * [[HnswOracleSpec]] can assert that serial [[Hnsw.add]] builds the same
  * graph and answers every search identically.
  */
final class ReferenceHnsw(
    val dim: Int,
    val m: Int = 16,
    val efConstruction: Int = 200,
    seed: Long = 42L) extends Serializable {

  private val mMax0 = 2 * m
  private val levelMult = 1.0 / math.log(m.toDouble)
  private val rnd = new java.util.Random(seed)

  private val vecs = mutable.ArrayBuffer.empty[Array[Float]]
  private val nodeLevel = mutable.ArrayBuffer.empty[Int]
  private val links = mutable.ArrayBuffer.empty[Array[mutable.ArrayBuffer[Int]]]
  private var entry: Int = -1
  private var topLevel: Int = -1

  def size: Int = vecs.length
  def vector(i: Int): Array[Float] = vecs(i)

  def neighbors(node: Int, level: Int): Array[Int] =
    if (level > nodeLevel(node)) Array.empty else links(node)(level).toArray

  def add(v: Array[Float]): Int = {
    require(v.length == dim, s"dim mismatch: ${v.length} != $dim")
    val id = vecs.length
    val lvl = drawLevel()
    vecs += v
    nodeLevel += lvl
    links += Array.fill(lvl + 1)(mutable.ArrayBuffer.empty[Int])

    if (entry < 0) { entry = id; topLevel = lvl; return id }

    var ep = entry
    var l = topLevel
    while (l > lvl) { ep = greedyClosest(v, ep, l); l -= 1 }
    l = math.min(lvl, topLevel)
    while (l >= 0) {
      val cands = searchLayer(v, Seq(ep), efConstruction, l)
      val selected = selectNeighbors(cands, m)
      val lst = links(id)(l)
      selected.foreach { case (nid, _) => lst += nid }
      val cap = if (l == 0) mMax0 else m
      selected.foreach { case (nid, _) =>
        val nl = links(nid)(l)
        nl += id
        if (nl.length > cap) shrink(nid, l, cap)
      }
      if (cands.nonEmpty) ep = cands.head._1
      l -= 1
    }
    if (lvl > topLevel) { topLevel = lvl; entry = id }
    id
  }

  def search(q: Array[Float], k: Int, ef: Int = 64): Array[(Int, Float)] = {
    if (entry < 0) return Array.empty
    var ep = entry
    var l = topLevel
    while (l > 0) { ep = greedyClosest(q, ep, l); l -= 1 }
    val res = searchLayer(q, Seq(ep), math.max(ef, k), 0)
    res.take(math.min(k, res.length)).toArray
  }

  private def drawLevel(): Int = {
    val u = rnd.nextDouble()
    math.min(31, (-math.log(u + 1e-12) * levelMult).toInt)
  }

  private def greedyClosest(q: Array[Float], start: Int, level: Int): Int = {
    var cur = start
    var curD = VecOps.l2(q, vecs(cur))
    var improved = true
    while (improved) {
      improved = false
      val ns = links(cur)(level)
      var i = 0
      while (i < ns.length) {
        val d = VecOps.l2(q, vecs(ns(i)))
        if (d < curD) { curD = d; cur = ns(i); improved = true }
        i += 1
      }
    }
    cur
  }

  private def searchLayer(q: Array[Float], eps: Seq[Int], ef: Int,
                          level: Int): Seq[(Int, Float)] = {
    val visited = new java.util.HashSet[Integer]()
    val cand = new java.util.PriorityQueue[(Int, Float)](
      (a: (Int, Float), b: (Int, Float)) => java.lang.Float.compare(a._2, b._2))
    val res = new java.util.PriorityQueue[(Int, Float)](
      (a: (Int, Float), b: (Int, Float)) => java.lang.Float.compare(b._2, a._2))
    eps.foreach { ep =>
      if (visited.add(ep)) {
        val d = VecOps.l2(q, vecs(ep))
        cand.add((ep, d)); res.add((ep, d))
      }
    }
    while (!cand.isEmpty) {
      val (c, cd) = cand.poll()
      if (res.size >= ef && cd > res.peek()._2) {
        cand.clear()
      } else {
        val ns = links(c)(level)
        var i = 0
        while (i < ns.length) {
          val nid = ns(i)
          if (visited.add(nid)) {
            val d = VecOps.l2(q, vecs(nid))
            if (res.size < ef || d < res.peek()._2) {
              cand.add((nid, d)); res.add((nid, d))
              if (res.size > ef) res.poll()
            }
          }
          i += 1
        }
      }
    }
    val out = new Array[(Int, Float)](res.size)
    var j = out.length - 1
    while (j >= 0) { out(j) = res.poll(); j -= 1 }
    scala.collection.immutable.ArraySeq.unsafeWrapArray(out)
  }

  private def selectNeighbors(cands: Seq[(Int, Float)], cap: Int): Seq[(Int, Float)] = {
    val result = mutable.ArrayBuffer.empty[(Int, Float)]
    val it = cands.iterator
    while (it.hasNext && result.length < cap) {
      val (e, dq) = it.next()
      var good = true
      var i = 0
      while (good && i < result.length) {
        if (VecOps.l2(vecs(e), vecs(result(i)._1)) < dq) good = false
        i += 1
      }
      if (good) result += ((e, dq))
    }
    result.toSeq
  }

  private def shrink(node: Int, level: Int, cap: Int): Unit = {
    val nl = links(node)(level)
    val v = vecs(node)
    val sorted = nl.distinct.map(nid => (nid, VecOps.l2(v, vecs(nid)))).sortBy(_._2)
    val kept = selectNeighbors(sorted.toSeq, cap)
    nl.clear()
    nl ++= kept.map(_._1)
  }
}
