package repro.spark

import org.apache.spark.sql.Dataset
import repro.core._
import repro.pruning.Pruner

import scala.collection.immutable.ArraySeq
import scala.reflect.ClassTag

/** Distributed SSS over a Spark `Dataset[Traj]`, the storage and input type
  * of the trajectory data. Each call is one plain RDD job over `data.rdd`:
  * every partition runs the shared top-K loop (`TopK.searchBelow`,
  * optionally behind Algorithm 3's GBP→KPF gate) once per query of the
  * batch, and the driver merges the at most `K × partitions` hits per query
  * by `(dist, trajId)` (`TopK.merge`), the order that loop itself uses.
  *
  * The query path builds no Catalyst plan: `Dataset.rdd` is a lazy val, so
  * the cached Dataset is planned once, on the first call, not once per
  * query. Cache `data` before that first call, or its RDD reads the
  * uncached plan for good.
  */
object SparkSearch {

  /** One job that runs `f` once per partition of `data`, on that
    * partition's trajectories as `(id, points)` in partition order, and
    * collects what `f` returns, in partition order. Each trajectory's points
    * are materialized once per job, however many queries `f` runs.
    */
  def eachPartition[A: ClassTag](data: Dataset[Traj])(f: Seq[(Long, IndexedSeq[Point])] => IterableOnce[A]): Array[A] =
    data.rdd.mapPartitions { it =>
      f(it.map(t => (t.id, ArraySeq.unsafeWrapArray(t.points): IndexedSeq[Point])).toVector).iterator
    }.collect()

  /** Global top-K hits for query `q` under `fn`, unpruned and searched by
    * CMA: `topKBatch` with a batch of one and its defaults.
    */
  def topK(data: Dataset[Traj], q: Array[Point], fn: DistFn[Point], k: Int): Array[TopK.Hit] =
    topKBatch(data, Array(q), fn, k).head

  /** Global top-K hits for each query of `qs` under `fn`, in `qs` order, from
    * one job: each partition keeps a local top-K per query over the
    * trajectories that query's `params` gate lets through (all of them by
    * default). A caller's `searchOne` searches every such trajectory in
    * full. By default CMA does, below the partition's current k-th best
    * (`CMA.searchBelow`): it stops a trajectory's DP once a finished row
    * proves the trajectory cannot enter the local top K, which leaves every
    * hit unchanged. A query with no point or a non-finite coordinate is
    * rejected on the driver.
    */
  def topKBatch(data: Dataset[Traj], qs: Array[Array[Point]], fn: DistFn[Point], k: Int,
                params: Option[Pruner.Params] = None,
                searchOne: Option[(IndexedSeq[Point], IndexedSeq[Point]) => SubtrajResult] = None
               ): Array[Array[TopK.Hit]] = {
    require(k >= 1, "k must be >= 1")
    require(qs.nonEmpty, "the query batch must not be empty")
    require(qs.forall(_.nonEmpty), "queries must not be empty")
    require(qs.forall(_.forall(p => p.x.isFinite && p.y.isFinite)), "query coordinates must be finite")
    val search: (IndexedSeq[Point], IndexedSeq[Point], Double) => Option[SubtrajResult] = searchOne match {
      case Some(s) => (a, b, _) => Some(s(a, b))
      case None    => (a, b, kth) => CMA.searchBelow(a, b, fn, kth)
    }
    val locals = eachPartition(data) { trajs =>
      Iterator.single(qs.map { q =>
        val qi = ArraySeq.unsafeWrapArray(q)
        params match {
          case Some(p) => TopK.searchBelow(qi, trajs, k, search, Pruner.gate(q, fn, p))
          case None    => TopK.searchBelow(qi, trajs, k, search)
        }
      })
    }
    Array.tabulate(qs.length)(i => TopK.merge(locals.flatMap(_(i)), k))
  }
}
