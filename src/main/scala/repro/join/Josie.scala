package repro.join

import scala.collection.mutable

/** JOSIE (Zhu et al., SIGMOD 2019): exact top-k overlap set similarity
  * search over an inverted index — the paper's exact equi-join baseline.
  *
  * Token lists are ordered by ascending document frequency (the canonical
  * prefix-filter ordering). The query scans postings rare-token-first,
  * accumulating candidate overlap counts; once the number of unread query
  * tokens drops strictly below the current k-th best partial count, no new
  * candidate can enter the top-k (prefix filter), so the remaining postings
  * only update existing candidates (the index-access side of JOSIE's
  * alternating index-probe/verify scheme; candidate verification happens
  * implicitly as the full postings are merged). The result is exactly the
  * top-k by overlap, with ties broken by column id ascending.
  */
final class Josie private (
    val colIds: Array[Long],
    tokenOf: java.util.HashMap[String, Integer],
    postings: Array[Array[Int]],
    dfOf: Array[Int]) extends Serializable {

  def numColumns: Int = colIds.length

  /** Exact top-k columns by jn(Q, X) = |Q ∩ X| / |Q|. */
  def topK(queryCells: Seq[String], k: Int): Seq[(Long, Double)] = {
    val qSize = queryCells.distinct.size
    if (k <= 0 || qSize == 0 || numColumns == 0) return Seq.empty
    // Query tokens present in the dictionary, rare-first.
    val qTokens = queryCells.distinct.iterator
      .map(tokenOf.get(_))
      .filter(_ != null)
      .map(_.intValue())
      .toArray
    java.util.Arrays.sort(qTokens)
    val ordered = qTokens.sortBy(dfOf)

    val counts = new Array[Int](numColumns)
    val touched = new mutable.ArrayBuffer[Int](1024)
    val inCand = new java.util.BitSet(numColumns)
    var sealedPrefix = false

    var i = 0
    while (i < ordered.length) {
      val remaining = ordered.length - i // tokens not yet read, incl. current
      if (!sealedPrefix) {
        val kth = kthLargest(counts, touched, k)
        // A column first seen now can reach at most `remaining` overlap; it
        // can still tie (and win by id) when remaining == kth, so only seal
        // on a strict inequality.
        if (remaining < kth) sealedPrefix = true
      }
      val plist = postings(ordered(i))
      var j = 0
      while (j < plist.length) {
        val c = plist(j)
        if (inCand.get(c)) counts(c) += 1
        else if (!sealedPrefix) {
          inCand.set(c); touched += c; counts(c) = 1
        }
        j += 1
      }
      i += 1
    }

    val ranked = touched.toArray
    val top = ranked
      .map(c => (c, counts(c)))
      .sortBy { case (c, cnt) => (-cnt, colIds(c)) }
      .take(math.min(k, ranked.length))
      .map { case (c, cnt) => (colIds(c), cnt.toDouble / qSize) }
    // Reset state for the next query (counts array is reused via `touched`).
    touched.foreach(counts(_) = 0)
    scala.collection.immutable.ArraySeq.unsafeWrapArray(top)
  }

  /** k-th largest value among counts of touched candidates (0 if fewer). */
  private def kthLargest(counts: Array[Int], touched: mutable.ArrayBuffer[Int],
                         k: Int): Int = {
    if (touched.length < k) return 0
    // Small k (<= 50 in all benches): partial selection is cheap.
    val top = new java.util.PriorityQueue[Integer](k)
    var i = 0
    while (i < touched.length) {
      val c = counts(touched(i))
      if (top.size < k) top.add(c)
      else if (c > top.peek()) { top.poll(); top.add(c) }
      i += 1
    }
    top.peek()
  }
}

object Josie {

  /** Build the inverted index from a collected repository. */
  def build(cols: Seq[(Long, Seq[String])]): Josie = {
    val n = cols.size
    val colIds = new Array[Long](n)
    val tokenOf = new java.util.HashMap[String, Integer]()
    val postingsBuf = mutable.ArrayBuffer.empty[mutable.ArrayBuffer[Int]]

    var c = 0
    cols.foreach { case (id, cells) =>
      colIds(c) = id
      cells.distinct.foreach { cell =>
        var t: Integer = tokenOf.get(cell)
        if (t == null) {
          t = Integer.valueOf(postingsBuf.length)
          tokenOf.put(cell, t)
          postingsBuf += mutable.ArrayBuffer.empty[Int]
        }
        postingsBuf(t.intValue()) += c
      }
      c += 1
    }
    val postings = postingsBuf.map(_.toArray).toArray
    val dfOf = postings.map(_.length)
    new Josie(colIds, tokenOf, postings, dfOf)
  }
}
