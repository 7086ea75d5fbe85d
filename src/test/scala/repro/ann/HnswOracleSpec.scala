package repro.ann

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Serial [[Hnsw.add]] must build [[ReferenceHnsw]]'s graph exactly — the
  * same neighbour list, in the same order, for every node on every level —
  * and answer every search with the same ids and the same distances.
  */
class HnswOracleSpec extends AnyFunSuite {

  /** Integer grid points with repeats: most pairwise distances tie exactly,
    * so the graph depends on the order in which the heaps pop ties.
    */
  private def ties(n: Int, dim: Int, seed: Long): IndexedSeq[Array[Float]] = {
    val r = new Random(seed)
    val distinct = IndexedSeq.fill(n / 3)(Array.fill(dim)(r.nextInt(3).toFloat))
    IndexedSeq.fill(n)(distinct(r.nextInt(distinct.size)).clone())
  }

  private val fixtures = Seq(
    ("clustered, m=12 efC=100", AnnFixtures.clustered(1500, 16, 12, seed = 7L), 12, 100),
    ("clustered, m=16 efC=200", AnnFixtures.clustered(800, 32, 6, seed = 3L), 16, 200),
    ("tied distances, m=12 efC=100", ties(900, 6, seed = 5L), 12, 100),
    ("tied distances, m=4 efC=16", ties(400, 4, seed = 9L), 4, 16))

  private def both(data: IndexedSeq[Array[Float]], m: Int, efC: Int): (Hnsw, ReferenceHnsw) = {
    val h = new Hnsw(data.head.length, m, efC, seed = 11L)
    val ref = new ReferenceHnsw(data.head.length, m, efC, seed = 11L)
    data.foreach { v => h.add(v); ref.add(v) }
    (h, ref)
  }

  fixtures.foreach { case (name, data, m, efC) =>
    test(s"serial add builds the reference graph ($name)") {
      val (h, ref) = both(data, m, efC)
      assert(h.size == ref.size)
      for (i <- 0 until h.size; l <- 0 until 32)
        assert(h.neighbors(i, l).toSeq == ref.neighbors(i, l).toSeq, s"node $i level $l")
    }

    test(s"search returns the reference ids and distances ($name)") {
      val (h, ref) = both(data, m, efC)
      val r = new Random(17)
      val dim = data.head.length
      val queries = data.take(60) ++
        IndexedSeq.fill(60)(Array.fill(dim)(r.nextGaussian().toFloat))
      for (q <- queries; (k, ef) <- Seq((1, 1), (10, 16), (10, 64), (50, 96)))
        assert(h.search(q, k, ef).toSeq == ref.search(q, k, ef).toSeq, s"k=$k ef=$ef")
    }
  }
}
