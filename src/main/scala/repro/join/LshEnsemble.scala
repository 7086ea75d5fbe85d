package repro.join

import scala.collection.mutable

/** LSH Ensemble (Zhu et al., PVLDB 2016): approximate containment search by
  * size-partitioned MinHash — the paper's approximate equi-join baseline.
  *
  * The repository is split into equal-depth partitions by set size. Inside a
  * partition, candidate columns are fetched from an LSH banding table; the
  * containment (joinability) of a candidate is then estimated from its
  * MinHash Jaccard estimate using the partition's *upper* size bound in the
  * containment↔Jaccard conversion — the conversion the paper blames for LSH
  * Ensemble's false positives, reproduced here verbatim:
  * c ≈ Ĵ·(|Q| + U) / ((1 + Ĵ)·|Q|).
  *
  * Top-k adaptation: banding candidates are collected partition by
  * partition; if they number fewer than 4k, the partition's signatures are
  * scanned directly (the fallback that makes LSH Ensemble as slow as JOSIE
  * in the paper's Table 13). Candidates are ranked by estimated containment.
  */
final class LshEnsemble private (
    mh: MinHash,
    partitions: Array[LshEnsemble.Partition]) extends Serializable {

  def numColumns: Int = partitions.map(_.ids.length).sum

  /** Approximate top-k columns by estimated containment jn(Q, ·). */
  def topK(queryCells: Seq[String], k: Int): Seq[(Long, Double)] = {
    val q = queryCells.distinct
    if (q.isEmpty) return Seq.empty
    val qSig = mh.signature(q)
    val qSize = q.size
    val scored = mutable.ArrayBuffer.empty[(Long, Double)]
    partitions.foreach { p =>
      val cand = p.bandCandidates(qSig)
      val ids: Iterator[Int] =
        if (cand.size >= k) cand.iterator else p.ids.indices.iterator
      ids.foreach { i =>
        val j = mh.jaccard(qSig, p.sigs(i))
        if (j > 0) {
          val c = math.min(1.0, j * (qSize + p.upper) / ((1.0 + j) * qSize))
          scored += ((p.ids(i), c))
        }
      }
    }
    scored.sortBy { case (id, c) => (-c, id) }.take(k).toSeq
  }
}

object LshEnsemble {

  /** One size partition: ids, signatures, size upper bound, banding table. */
  final class Partition(
      val ids: Array[Long],
      val sigs: Array[Array[Long]],
      val upper: Int) extends Serializable {

    private val nBands = sigs.headOption.map(_.length / bandRows).getOrElse(0)
    private val table: java.util.HashMap[Long, mutable.ArrayBuffer[Int]] = {
      val t = new java.util.HashMap[Long, mutable.ArrayBuffer[Int]]()
      var i = 0
      while (i < sigs.length) {
        var b = 0
        while (b < nBands) {
          val key = bandKey(sigs(i), b)
          var lst = t.get(key)
          if (lst == null) { lst = mutable.ArrayBuffer.empty[Int]; t.put(key, lst) }
          lst += i
          b += 1
        }
        i += 1
      }
      t
    }

    private def bandKey(sig: Array[Long], band: Int): Long = {
      var h = 0x9e3779b97f4a7c15L + band
      var r = 0
      while (r < bandRows) {
        h ^= sig(band * bandRows + r)
        h *= 0xff51afd7ed558ccdL
        h ^= h >>> 33
        r += 1
      }
      h
    }

    /** Column indices sharing at least one band with the query. */
    def bandCandidates(qSig: Array[Long]): mutable.LinkedHashSet[Int] = {
      val out = mutable.LinkedHashSet.empty[Int]
      var b = 0
      while (b < nBands) {
        val lst = table.get(bandKey(qSig, b))
        if (lst != null) out ++= lst
        b += 1
      }
      out
    }
  }

  /** Size partitions, MinHash signature length, and rows per LSH band. */
  private val nPartitions = 8
  private val sig = 64
  private val bandRows = 4

  /** Build from a collected repository. */
  def build(cols: Seq[(Long, Seq[String])]): LshEnsemble = {
    val mh = new MinHash(sig)
    val bySize = cols.map { case (id, cells) => (id, cells.distinct) }
      .sortBy { case (id, cells) => (cells.size, id) }
    val n = bySize.size
    val per = math.max(1, math.ceil(n.toDouble / nPartitions).toInt)
    val parts = bySize.grouped(per).map { grp =>
      val ids = grp.map(_._1).toArray
      val sigs = grp.map(g => mh.signature(g._2)).toArray
      val upper = grp.map(_._2.size).max
      new Partition(ids, sigs, upper)
    }.toArray
    new LshEnsemble(mh, parts)
  }
}
