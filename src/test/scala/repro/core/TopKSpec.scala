package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.pruning.KPF

import scala.util.Random

/** Top-K SSS (Appendix E): the heap-based search must equal sorting all
  * per-trajectory optima.
  */
class TopKSpec extends AnyFunSuite {
  import TopKSpec.{Item, Lazy}

  private def db(seed: Int, n: Int): Seq[(Long, IndexedSeq[Point])] = {
    val r = new Random(seed)
    (0 until n).map(i => (i.toLong, TestGen.randPoints(r, 4 + r.nextInt(12))))
  }

  for (k <- Seq(1, 3, 5); seed <- 0 until 5)
    test(s"topK == sorted per-trajectory optima [k=$k seed=$seed]") {
      val data = db(seed, 12)
      val q = TestGen.randPoints(new Random(seed + 50), 5)
      val fn = Dist.dtw
      val got = TopK.cma(q, data, k, fn)
      val want = data.map { case (id, d) =>
        val r = CMA.search(q, d, fn); (id, r.dist)
      }.sortBy { case (id, dist) => (dist, id) }.take(k)
      assert(got.length == math.min(k, data.size))
      for ((h, (wid, wdist)) <- got.zip(want)) {
        TestGen.assertSameDist(h.dist, wdist)
        assert(h.trajId == wid || math.abs(h.dist - wdist) < 1e-12)
      }
    }

  test("topK with k larger than the database returns everything, sorted") {
    val data = db(3, 4)
    val got = TopK.cma(TestGen.randPoints(new Random(9), 4), data, 10, Dist.dtw)
    assert(got.length == 4)
    assert(got.map(_.dist).toSeq == got.map(_.dist).toSeq.sorted)
  }

  test("topK hits carry achievable intervals") {
    val data = db(7, 8)
    val q = TestGen.randPoints(new Random(8), 5)
    for (h <- TopK.cma(q, data, 3, Dist.fd)) {
      val d = data.find(_._1 == h.trajId).get._2
      TestGen.assertSameDist(FullDist.dist(q, d.slice(h.start - 1, h.end), Dist.fd), h.dist)
    }
  }

  test("topK search sees +inf until k hits are held, then the k-th best distance") {
    val data = db(4, 8)
    val q = TestGen.randPoints(new Random(10), 4)
    val seen = scala.collection.mutable.ArrayBuffer.empty[Double]
    TopK.searchBelow(q, data, 2, (a: IndexedSeq[Point], b: IndexedSeq[Point], kth: Double) => {
      seen += kth; Some(CMA.search(a, b, Dist.dtw))
    })
    val dists = data.map { case (_, d) => CMA.search(q, d, Dist.dtw).dist }
    val want = dists.indices.map(i =>
      if (i < 2) Double.PositiveInfinity else dists.take(i).sorted.apply(1))
    assert(seen.toSeq == want)
  }

  // A filter in front of the search answers None whatever the k-th best,
  // +inf included (at k = 3, trajectory 1): the loop holds and ranks only
  // the answered hits, and at k = 12, all of the data, returns those 8.
  for (k <- Seq(1, 3, 12))
    test(s"a search that answers None before k hits are held is skipped [k=$k]") {
      val data = db(5, 12)
      val q = TestGen.randPoints(new Random(11), 5)
      def answers(id: Long) = id % 3 != 1 // None for ids 1, 4, 7 and 10
      val seen = scala.collection.mutable.ArrayBuffer.empty[Double]
      val got = TopK.searchBelow(q, data.map { case (id, d) => (id, (id, d)) }, k,
        (a: IndexedSeq[Point], b: (Long, IndexedSeq[Point]), kth: Double) => {
          seen += kth
          if (answers(b._1)) Some(CMA.search(a, b._2, Dist.dtw)) else None
        })
      val answered = data.filter { case (id, _) => answers(id) }
      assert(got.toSeq == TopK.cma(q, answered, k, Dist.dtw).toSeq)
      val want = data.indices.map { i =>
        val held = answered.takeWhile(_._1 < i).map { case (_, d) => CMA.search(q, d, Dist.dtw).dist }
        if (held.length < k) Double.PositiveInfinity else held.sorted.apply(k - 1)
      }
      assert(seen.toSeq == want)
    }

  test("a closer hit evicts the highest id among hits tied at the k-th distance") {
    val r = new Random(12)
    val (far, near) = (TestGen.randPoints(r, 6), TestGen.randPoints(r, 6))
    val q = near.take(3)
    val data = Seq(0L -> far, 1L -> far, 2L -> far, 3L -> near, 4L -> far)
    assert(CMA.search(q, near, Dist.dtw).dist < CMA.search(q, far, Dist.dtw).dist)
    assert(TopK.cma(q, data, 3, Dist.dtw).map(_.trajId).toSeq == Seq(3L, 0L, 1L))
  }

  // Data in any order: copies of five trajectories under new ids tie with
  // them exactly (half the queries are pieces of a copied one), and EDR's
  // integer distances tie at the k-th. The hits are TopK.cma's over the
  // data in id order, hit for hit.
  for (fn <- Seq(Dist.dtw, Dist.edr(0.3)); k <- Seq(1, 3, 10))
    test(s"searchBelow with CMA.searchBelow == TopK.cma hit for hit in any data order [${fn.name} k=$k]") {
      var tiesAtK = 0
      for (seed <- 0 until 12) {
        val r = new Random(seed * 13 + k)
        val base = db(seed + 200, 14)
        val data = base ++ base.take(5).map { case (id, d) => (id + 50, d) }
        val q = if (seed % 2 == 0) base(r.nextInt(5))._2.take(4) else TestGen.randPoints(r, 5)
        val want = TopK.cma(q, data, k, fn)
        for (_ <- 0 until 4) {
          val got = TopK.searchBelow(q, r.shuffle(data), k,
            (a: IndexedSeq[Point], b: IndexedSeq[Point], kth: Double) => CMA.searchBelow(a, b, fn, kth))
          assert(got.toSeq == want.toSeq, s"seed=$seed")
        }
        val dists = data.map { case (_, d) => CMA.search(q, d, fn).dist }
        if (dists.count(_ == want.last.dist) > want.count(_.dist == want.last.dist)) tiesAtK += 1
      }
      assert(tiesAtK > 0, "no tie crossed the k-th place")
    }

  test("a trajectory whose id is below the k-th hit's is handed Math.nextUp of the k-th distance") {
    // Descending ids: from the third trajectory on, every id is below the
    // k-th hit's, so an equal distance would take its place.
    val data = db(6, 8).reverse
    val q = TestGen.randPoints(new Random(13), 4)
    val seen = scala.collection.mutable.ArrayBuffer.empty[Double]
    TopK.searchBelow(q, data, 2, (a: IndexedSeq[Point], b: IndexedSeq[Point], kth: Double) => {
      seen += kth; Some(CMA.search(a, b, Dist.dtw))
    })
    val dists = data.map { case (_, d) => CMA.search(q, d, Dist.dtw).dist }
    val want = dists.indices.map(i =>
      if (i < 2) Double.PositiveInfinity else Math.nextUp(dists.take(i).sorted.apply(1)))
    assert(seen.toSeq == want)
  }

  // --- TopK.bestFirst: keys first, visits in (bound, id) order, cuts at >= ---

  /** `TopK.bestFirst` over `items` in the given order, recording the id and
    * threshold of each trajectory its search is handed.
    */
  private def bestFirstSeen(items: Seq[Item], k: Int): (Array[TopK.Hit], Seq[(Long, Double)]) = {
    val seen = scala.collection.mutable.ArrayBuffer.empty[(Long, Double)]
    val hits = TopK.bestFirst((), items.map(i => (i.id, i)), k, (i: Item) => i.bound,
      (_: Unit, i: Item, kth: Double) => { seen += ((i.id, kth)); Some(SubtrajResult(1, 1, i.dist)) })
    (hits, seen.toSeq)
  }

  test("bestFirst searches in ascending (bound, id) order, ties to the lower id, NaN last") {
    val bounds = Map(0L -> 2.0, 1L -> 1.0, 2L -> 1.0, 3L -> 0.0, 4L -> -0.0, 5L -> Double.NaN, 6L -> 1.0, 7L -> 0.5)
    val items = Seq(5L, 2L, 7L, 0L, 3L, 6L, 1L, 4L).map(id => Item(id, Some(bounds(id)), 10.0 - id))
    val (hits, seen) = bestFirstSeen(items, items.length) // k = all: nothing is cut
    assert(seen.map(_._1) == Seq(4L, 3L, 7L, 1L, 2L, 6L, 0L, 5L))
    assert(hits.map(_.trajId).toSeq == Seq(7L, 6L, 5L, 4L, 3L, 2L, 1L, 0L))
  }

  test("bestFirst drops a trajectory whose bound is None before its search") {
    val items = (0L until 12L).map(id => Item(id, if (id % 3 == 1) None else Some(0.0), (id % 5).toDouble))
    for (k <- Seq(1, 3, 12)) {
      val (hits, seen) = bestFirstSeen(new Random(k).shuffle(items), k)
      assert(seen.forall(_._1 % 3 != 1), s"k=$k")
      val want = items.filter(_.bound.isDefined).sortBy(i => (i.dist, i.id)).take(k).map(_.id)
      assert(hits.map(_.trajId).toSeq == want, s"k=$k")
    }
  }

  // The hit (id 5, distance 1) is held at k = 1. Id 7's bound equals its
  // threshold, 1, and is cut; id 3's equal bound is handed Math.nextUp(1),
  // as an equal distance at a lower id would take the place, and searched.
  test("bestFirst cuts a bound equal to the threshold, except below the k-th hit's id") {
    val items = Seq(Item(7L, Some(1.0), 1.0), Item(3L, Some(1.0), 1.0), Item(5L, Some(0.0), 1.0))
    val (hits, seen) = bestFirstSeen(items, 1)
    assert(seen == Seq(5L -> Double.PositiveInfinity, 3L -> Math.nextUp(1.0)))
    assert(hits.toSeq == Seq(TopK.Hit(3L, 1, 1, 1.0)))
    val (cut, seenCut) = bestFirstSeen(items.filter(_.id != 3L), 1)
    assert(seenCut == Seq(5L -> Double.PositiveInfinity))
    assert(cut.toSeq == Seq(TopK.Hit(5L, 1, 1, 1.0)))
  }

  test("bestFirst keys every trajectory before the first search: a bound that throws on the last one") {
    val data = db(8, 6)
    val lastId = data.last._1
    val e = intercept[IllegalStateException] {
      TopK.bestFirst(data.head._2, data.map { case (id, d) => (id, (id, d)) }, 2,
        (b: (Long, IndexedSeq[Point])) => if (b._1 == lastId) throw new IllegalStateException("bad bound") else Some(0.0),
        (_: IndexedSeq[Point], _: (Long, IndexedSeq[Point]), _: Double) => fail("searched before every bound was taken"))
    }
    assert(e.getMessage == "bad bound")
  }

  // --- TopK.bestFirst with refine: a cheap key, refined at the queue's front ---

  /** `TopK.bestFirst` over `items` keyed by `key` and refined to `refined`,
    * recording each search's id and threshold and each refined id.
    */
  private def refinedSeen(items: Seq[Lazy], k: Int): (Array[TopK.Hit], Seq[(Long, Double)], Seq[Long]) = {
    val (seen, refined) = (scala.collection.mutable.ArrayBuffer.empty[(Long, Double)], scala.collection.mutable.ArrayBuffer.empty[Long])
    val hits = TopK.bestFirst((), items.map(i => (i.id, i)), k, (i: Lazy) => Some(i.key),
      (_: Unit, i: Lazy, kth: Double) => { seen += ((i.id, kth)); Some(SubtrajResult(1, 1, i.dist)) },
      Some((i: Lazy) => { refined += i.id; i.refined }))
    (hits, seen.toSeq, refined.toSeq)
  }

  // Keys and refined keys on a coarse grid tie often, across ids and with
  // each other; the distances are random, at or above the refined key, or
  // not, since the order does not depend on them.
  test("bestFirst with key <= refined searches as the scan keyed by the refined key, each entry refined at most once") {
    var (refinedTotal, searchedTotal, cutUnrefined) = (0, 0, 0)
    for (seed <- 0 until 300; k <- Seq(1, 2, 5)) {
      val r = new Random(seed)
      val items = (0L until 4L + r.nextInt(20)).map { id =>
        val refined = r.nextInt(8).toDouble
        val key = if (r.nextBoolean()) refined else refined - r.nextInt(4)
        Lazy(id, key, refined, if (seed % 2 == 0) refined + r.nextInt(4) else r.nextInt(10).toDouble)
      }
      val shuffled = r.shuffle(items)
      val (hits, seen, refined) = refinedSeen(shuffled, k)
      val (wantHits, wantSeen) = bestFirstSeen(shuffled.map(i => Item(i.id, Some(i.refined), i.dist)), k)
      assert(seen == wantSeen, s"seed=$seed k=$k")
      assert(hits.toSeq == wantHits.toSeq, s"seed=$seed k=$k")
      assert(refined.distinct == refined, s"seed=$seed k=$k: refined twice")
      assert(seen.map(_._1).forall(refined.contains), s"seed=$seed k=$k: searched unrefined")
      refinedTotal += refined.length; searchedTotal += seen.length; cutUnrefined += items.length - refined.length
    }
    assert(refinedTotal > searchedTotal && cutUnrefined > 0, s"$refinedTotal refined, $searchedTotal searched")
  }

  // At k = 1 the hit (id 0, distance 1) is held after the first search. Id
  // 2's key equals that threshold, and id 3's is above it: neither is
  // refined. Id 1's key is below it, so it is refined, and its refined key
  // reaches the threshold, so it is not searched.
  test("bestFirst never refines an entry whose key reaches the threshold it is handed") {
    val items = Seq(Lazy(3L, 4.0, 9.0, 9.0), Lazy(2L, 1.0, 1.0, 0.5), Lazy(1L, 0.5, 3.0, 0.0), Lazy(0L, 0.0, 0.0, 1.0))
    val (hits, seen, refined) = refinedSeen(items, 1)
    assert(refined == Seq(0L, 1L))
    assert(seen == Seq(0L -> Double.PositiveInfinity))
    assert(hits.toSeq == Seq(TopK.Hit(0L, 1, 1, 1.0)))
  }

  test("bestFirst refines nothing before every key is taken, and refines lazily") {
    val items = (0L until 6L).map(id => Lazy(id, 0.0, id.toDouble, id.toDouble))
    val order = scala.collection.mutable.ArrayBuffer.empty[String]
    TopK.bestFirst((), items.map(i => (i.id, i)), 1, (i: Lazy) => { order += s"key ${i.id}"; Some(i.key) },
      (_: Unit, i: Lazy, _: Double) => { order += s"search ${i.id}"; Some(SubtrajResult(1, 1, i.dist)) },
      Some((i: Lazy) => { order += s"refine ${i.id}"; i.refined }))
    // Id 0 is refined and searched first, at +inf; its hit at distance 0
    // is a threshold every other key, 0 at a higher id, reaches.
    assert(order.toSeq == (0 until 6).map(i => s"key $i") ++ Seq("refine 0", "search 0"))
  }

  /** The two exact lower bounds, each `<=` the optimum bit for bit. */
  private val exactBounds: Seq[(String, (IndexedSeq[Point], IndexedSeq[Point], DistFn[Point]) => Double)] = Seq(
    ("KPF r=1", (q, d, fn) => KPF.estimate(q, d, fn, 1.0)),
    ("box", (q, d, fn) => KPF.boxBound(q, fn, KPF.Box(d.map(_.x).min, d.map(_.x).max, d.map(_.y).min, d.map(_.y).max))))

  // Copies of five trajectories under new ids tie with them exactly (half
  // the queries are pieces of a copied one), so bounds and distances tie.
  for (fn <- TestGen.pointFns; (name, bound) <- exactBounds)
    test(s"bestFirst keyed by the $name bound == TopK.cma hit for hit in any data order [${fn.name} k=1,3,10]") {
      var (searched, examined) = (0, 0)
      for (k <- Seq(1, 3, 10); seed <- 0 until 8) {
        val r = new Random(seed * 17 + k)
        val base = db(seed + 300, 14)
        val data = base ++ base.take(5).map { case (id, d) => (id + 50, d) }
        val q = if (seed % 2 == 0) base(r.nextInt(5))._2.take(4) else TestGen.randPoints(r, 5)
        val want = TopK.cma(q, data, k, fn)
        for (_ <- 0 until 3) {
          val got = TopK.bestFirst(q, r.shuffle(data), k, (d: IndexedSeq[Point]) => Some(bound(q, d, fn)),
            (a: IndexedSeq[Point], d: IndexedSeq[Point], kth: Double) => { searched += 1; CMA.searchBelow(a, d, fn, kth) })
          assert(got.toSeq == want.toSeq, s"k=$k seed=$seed")
          examined += data.length
        }
      }
      if (fn.name != "WEDC") assert(searched < examined, s"the $name bound never cut") // WEDC's bounds are 0
    }

  test("topK rejects k < 1") {
    intercept[IllegalArgumentException] {
      TopK.cma(TestGen.randPoints(new Random(1), 3), db(1, 3), 0, Dist.dtw)
    }
  }

  test("topK rejects an empty data trajectory") {
    val data = Seq((0L, IndexedSeq.empty[Point]), (1L, TestGen.randPoints(new Random(2), 6)))
    intercept[IllegalArgumentException] {
      TopK.cma(TestGen.randPoints(new Random(3), 3), data, 5, Dist.dtw)
    }
  }
}

object TopKSpec {

  /** A trajectory stand-in for `TopK.bestFirst`: its id, its bound and the
    * distance a search answers.
    */
  final case class Item(id: Long, bound: Option[Double], dist: Double)

  /** A trajectory stand-in for `TopK.bestFirst` with `refine`: its id, its
    * key, its refined key and the distance a search answers.
    */
  final case class Lazy(id: Long, key: Double, refined: Double, dist: Double)
}
