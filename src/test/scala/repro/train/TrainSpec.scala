package repro.train

import org.scalatest.funsuite.AnyFunSuite
import repro.embed.VecOps
import repro.lake.{LakeConfig, LakeGenerator}
import scala.util.Random

object TrainFixtures {
  /** Two latent classes in feature space; positives pair same-class points. */
  def syntheticPairs(n: Int, dim: Int, seed: Long): IndexedSeq[Trainer.Example] = {
    val r = new Random(seed)
    val centers = IndexedSeq.fill(6)(VecOps.normalizeInPlace(
      Array.fill(dim)(r.nextGaussian().toFloat)))
    IndexedSeq.tabulate(n) { i =>
      val c = centers(i % centers.size)
      def sample() = {
        val v = Array.tabulate(dim)(j => c(j) + 0.4f * r.nextGaussian().toFloat)
        VecOps.normalizeInPlace(v)
      }
      Trainer.Example(sample(), sample(), i.toLong, 100000L + i, group = i % centers.size)
    }
  }
}

class DiagonalHeadSpec extends AnyFunSuite {
  test("output is unit norm") {
    val h = new DiagonalHead(16)
    h.g(3) = 0.7f
    val x = Array.fill(16)(0.3f)
    assert(math.abs(VecOps.norm(h(x)) - 1f) < 1e-5)
  }
  test("output dimension is dOut") {
    val h = new DiagonalHead(16)
    assert(h.dOut == 16)
    assert(h(Array.fill(16)(1f)).length == 16)
  }
  test("untrained head approximately preserves the input direction") {
    val h = new DiagonalHead(16)
    val r = new Random(3)
    val x = VecOps.normalizeInPlace(Array.fill(16)(r.nextGaussian().toFloat))
    assert(VecOps.cosine(h(x), x) > 0.9999f)
  }
  test("parameters have the expected shapes") {
    val h = new DiagonalHead(10)
    assert(h.parameters.map(_.length) == Seq(10))
  }

  /** Finite-difference check of the hand-derived backward pass. */
  test("gradient check (finite differences) for DiagonalHead") {
    val head = new DiagonalHead(6)
    val dIn = 6
    val r = new Random(11)
    val x = VecOps.normalizeInPlace(Array.fill(dIn)(r.nextGaussian().toFloat))
    val t = VecOps.normalizeInPlace(Array.fill(head.dOut)(r.nextGaussian().toFloat))
    def loss(): Double = { // L = -t . u(x)
      val u = head.forward(x)._2
      -VecOps.dot(t, u).toDouble
    }
    // Analytic gradients.
    val grads = head.parameters.map(p => new Array[Float](p.length))
    val fwd = head.forward(x)
    val gU = t.map(v => -v)
    head.backward(fwd, gU, grads)
    // Compare a sample of coordinates against central differences.
    val eps = 1e-3f
    head.parameters.zip(grads).foreach { case (p, g) =>
      val idxs = (0 until math.min(p.length, 10)).map(_ * math.max(1, p.length / 10))
      idxs.foreach { i =>
        val orig = p(i)
        p(i) = orig + eps; val lp = loss()
        p(i) = orig - eps; val lm = loss()
        p(i) = orig
        val fd = (lp - lm) / (2 * eps)
        assert(math.abs(fd - g(i)) < 5e-2 + 0.1 * math.abs(fd),
          s"param ${p.length} idx $i: fd=$fd analytic=${g(i)}")
      }
    }
  }
}

class TrainerSpec extends AnyFunSuite {
  private val dim = 24
  private val pairs = TrainFixtures.syntheticPairs(400, dim, seed = 5L)

  test("MNR loss decreases over epochs") {
    val (_, losses) = Trainer.train(pairs, dim,
      Trainer.Config(epochs = 4, lr = 2e-3, seed = 1L))
    assert(losses.last < losses.head, s"losses $losses")
  }
  test("MNR training increases positive-pair cosine relative to negatives") {
    val (head, _) = Trainer.train(pairs, dim,
      Trainer.Config(epochs = 4, lr = 2e-3, seed = 2L))
    val posCos = pairs.take(100).map(p => VecOps.dot(head(p.x), head(p.y)).toDouble)
    val r = new Random(4)
    val negCos = (0 until 100).map { _ =>
      val a = pairs(r.nextInt(pairs.size)); val b = pairs(r.nextInt(pairs.size))
      VecOps.dot(head(a.x), head(b.y)).toDouble
    }
    assert(posCos.sum / posCos.size > negCos.sum / negCos.size)
  }
  test("diag head training works and keeps dimension") {
    val (head, losses) = Trainer.train(pairs, dim,
      Trainer.Config(epochs = 3, lr = 5e-3, seed = 3L))
    assert(head.dOut == dim)
    assert(losses.last <= losses.head + 1e-9)
  }
  test("hard-negative batching runs (group-first epochs)") {
    val (_, losses) = Trainer.train(pairs, dim,
      Trainer.Config(epochs = 2, hardEpochs = 2, seed = 4L))
    assert(losses.size == 2)
  }
  test("known positives are masked from the softmax (no crash, loss finite)") {
    val posSet = pairs.take(50).map(p => (p.xId, p.yId)).toSet
    val (_, losses) = Trainer.train(pairs, dim, Trainer.Config(epochs = 1),
      knownPositives = posSet)
    assert(losses.forall(l => !l.isNaN && !l.isInfinite))
  }
  test("training is deterministic in the seed") {
    val (h1, l1) = Trainer.train(pairs, dim, Trainer.Config(epochs = 1, seed = 9L))
    val (h2, l2) = Trainer.train(pairs, dim, Trainer.Config(epochs = 1, seed = 9L))
    assert(l1 == l2)
    assert(h1.parameters.map(_.toSeq) == h2.parameters.map(_.toSeq))
  }
  test("empty training set is rejected") {
    assertThrows[IllegalArgumentException](
      Trainer.train(IndexedSeq.empty, dim, Trainer.Config()))
  }
}

class AdamSpec extends AnyFunSuite {
  test("adam reduces a quadratic") {
    val w = Array(5.0f)
    val adam = new Adam(Seq(1), lr = 0.1)
    (0 until 200).foreach { _ =>
      adam.update(Seq(w), Seq(Array(2 * w(0)))) // d/dw w^2
    }
    assert(math.abs(w(0)) < 0.5)
  }
  test("weight decay pulls parameters toward zero with zero gradient") {
    val w = Array(1.0f)
    val adam = new Adam(Seq(1), lr = 0.1, weightDecay = 0.5)
    (0 until 100).foreach(_ => adam.update(Seq(w), Seq(Array(0.0f))))
    assert(math.abs(w(0)) < 0.1)
  }
}

class TrainingDataSpec extends AnyFunSuite {
  private val cfg = LakeConfig.webtable()
  private val cols = (0 until 60).map(i => LakeGenerator.genColumn(cfg, i))
  private val pos = cols.sliding(2, 2).map(p =>
    TrainingData.Pair(p(0), p(1), 0.8)).toSeq

  test("shuffleCells permutes cells and keeps entities parallel") {
    val c = cols.find(_.size >= 8).get
    val s = TrainingData.shuffleCells(c, seed = 3L)
    assert(s.cells.sorted == c.cells.sorted)
    assert(s.cells != c.cells) // astronomically unlikely to be equal at size 8+
    val orig = c.cells.zip(c.entities).toMap
    s.cells.zip(s.entities).foreach { case (cell, ent) =>
      assert(orig(cell) == ent)
    }
  }
  test("augment with rate 0 is the identity") {
    assert(TrainingData.augment(pos, 0.0) == pos)
  }
  test("augment adds ceil(r * n) shuffled pairs") {
    val out = TrainingData.augment(pos, 0.2, seed = 1L)
    assert(out.size == pos.size + math.ceil(0.2 * pos.size).toInt)
  }
  test("augmented fraction equals r/(1+r)") {
    val r = 0.5
    val out = TrainingData.augment(pos, r, seed = 2L)
    val frac = (out.size - pos.size).toDouble / out.size
    assert(math.abs(frac - r / (1 + r)) < 0.05)
  }
  test("augmented pairs keep the y side and the jn label") {
    val out = TrainingData.augment(pos, 0.3, seed = 4L)
    out.drop(pos.size).foreach { p =>
      val src = pos.find(_.x.id == p.x.id).get
      assert(p.y == src.y && p.jn == src.jn)
      assert(p.x.cells.sorted == src.x.cells.sorted)
    }
  }
  test("negative shuffle rate is rejected") {
    assertThrows[IllegalArgumentException](TrainingData.augment(pos, -0.1))
  }
}

class TrainingDataSparkSpec extends repro.SparkSpec {
  private val cfg = LakeConfig.webtable()

  test("equiPositives returns pairs above the threshold, both directions possible") {
    import spark.implicits._
    val cols = (0 until 150).map(i => LakeGenerator.genColumn(cfg, i))
    val ds = spark.createDataset(cols)
    val pos = TrainingData.equiPositives(spark, ds, t = 0.6)
    assert(pos.nonEmpty)
    pos.foreach { p =>
      val jn = repro.join.Joinability.equiJn(p.x.cells, p.y.cells)
      assert(jn >= 0.6 && math.abs(jn - p.jn) < 1e-9)
    }
  }
  test("semanticPositives returns pairs above the threshold") {
    val cols = (0 until 80).map(i => LakeGenerator.genColumn(cfg, i))
    val pos = TrainingData.semanticPositives(cols, tau = 0.9, t = 0.6)
    pos.foreach(p => assert(p.jn >= 0.6))
  }
}

class MlpBaselineSpec extends AnyFunSuite {
  private val cfg = LakeConfig.webtable()
  private val cols = (0 until 40).map(i => LakeGenerator.genColumn(cfg, i))

  test("trained MLP embeds to the hidden dimension, unit norm") {
    val base = new repro.embed.FastTextEmbedder()
    val exs = cols.sliding(2, 2).map { p =>
      (base.embed(p(0)), base.embed(p(1)),
        repro.join.Joinability.equiJn(p(0).cells, p(1).cells))
    }.toIndexedSeq
    val mlp = MlpBaseline.train(base, exs, MlpBaseline.Config(hidden = 16, epochs = 2))
    val v = mlp.embed(cols.head)
    assert(v.length == 16)
    assert(math.abs(VecOps.norm(v) - 1f) < 1e-5)
  }
  test("trainFromPairs runs end to end") {
    val base = new repro.embed.FastTextEmbedder()
    val pos = cols.sliding(2, 2).map(p => TrainingData.Pair(p(0), p(1), 0.8)).toSeq
    val mlp = MlpBaseline.trainFromPairs(base, pos, cols,
      (a, b) => repro.join.Joinability.equiJn(a.cells, b.cells),
      MlpBaseline.Config(hidden = 16, epochs = 1))
    assert(mlp.embed(cols.head).length == 16)
  }
  test("empty example set is rejected") {
    val base = new repro.embed.FastTextEmbedder()
    assertThrows[IllegalArgumentException](
      MlpBaseline.train(base, IndexedSeq.empty))
  }
}
