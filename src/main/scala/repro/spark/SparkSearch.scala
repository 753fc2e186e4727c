package repro.spark

import org.apache.spark.sql.Dataset
import repro.core._
import repro.pruning.KPF

import scala.collection.immutable.ArraySeq
import scala.reflect.ClassTag

/** Distributed SSS over a Spark `Dataset[Traj]`, the storage and input type
  * of the trajectory data. Each call is one plain RDD job over `data.rdd`:
  * every partition runs the shared best-first top-K (`TopK.bestFirst`,
  * keyed by the exact bounding-box bound, with `CMA.searchBelow`) once per
  * query of the batch, and the driver merges the at most `K × partitions`
  * hits per query by `(dist, trajId)` (`TopK.merge`), the order that loop
  * itself uses.
  * Every hit equals the unpruned `TopK.cma`'s. Table 3's heuristic GBP→KPF
  * gate is not on this path: `Harness.table3` runs `Pruner.search` in each
  * partition over `eachPartition`.
  *
  * The query path builds no Catalyst plan: `Dataset.rdd` is a lazy val, so
  * the cached Dataset is planned once, on the first call, not once per
  * query. Cache `data` before that first call, or its RDD reads the
  * uncached plan for good.
  */
object SparkSearch {

  /** One job that runs `f` once per partition of `data`, on that
    * partition's trajectories in partition order, and collects what `f`
    * returns, in partition order.
    */
  def eachPartition[A: ClassTag](data: Dataset[Traj])(f: Seq[Traj] => IterableOnce[A]): Array[A] =
    data.rdd.mapPartitions(it => f(it.toVector).iterator).collect()

  /** Global top-K hits for query `q` under `fn`, searched by CMA in exact
    * box-bound order: `topKBatch` with a batch of one.
    */
  def topK(data: Dataset[Traj], q: Array[Point], fn: DistFn[Point], k: Int): Array[TopK.Hit] =
    topKBatch(data, Array(q), fn, k).head

  /** Global top-K hits for each query of `qs` under `fn`, in `qs` order, from
    * one job: each partition keeps a local top-K per query with
    * `TopK.bestFirst`, keyed by `KPF.boxBound` and searched by
    * `CMA.searchBelow`, so only a trajectory it searches has its points
    * built. A bad data trajectory fails the task as `Traj`'s constructor
    * rejects it; a bad query (`KPF.requireQuery`) is rejected on the driver.
    */
  def topKBatch(data: Dataset[Traj], qs: Array[Array[Point]], fn: DistFn[Point], k: Int): Array[Array[TopK.Hit]] = {
    require(k >= 1, "k must be >= 1")
    require(qs.nonEmpty, "the query batch must not be empty")
    qs.foreach(KPF.requireQuery)
    val locals = eachPartition(data) { trajs =>
      val ds = trajs.map(t => (t.id, new Boxed(t)))
      Iterator.single(qs.map { q =>
        val qi = ArraySeq.unsafeWrapArray(q)
        TopK.bestFirst(qi, ds, k, (b: Boxed) => Some(KPF.boxBound(qi, fn, b.box)),
          (a: IndexedSeq[Point], b: Boxed, kth: Double) => CMA.searchBelow(a, b.points, fn, kth))
      })
    }
    Array.tabulate(qs.length)(i => TopK.merge(locals.flatMap(_(i)), k))
  }

  /** A trajectory's bounding box, from one pass over `xs`/`ys`, and its
    * points, built on first use.
    */
  private[spark] final class Boxed(t: Traj) {
    private var minX, minY = Double.PositiveInfinity
    private var maxX, maxY = Double.NegativeInfinity
    for (i <- 0 until t.length) {
      minX = math.min(minX, t.xs(i)); maxX = math.max(maxX, t.xs(i))
      minY = math.min(minY, t.ys(i)); maxY = math.max(maxY, t.ys(i))
    }
    val box: KPF.Box = KPF.Box(minX, maxX, minY, maxY)
    lazy val points: IndexedSeq[Point] = ArraySeq.unsafeWrapArray(t.points)
  }
}
