package repro.spark

import org.apache.spark.sql.Dataset
import org.apache.spark.sql.functions._
import repro.core._
import repro.pruning.Pruner

import scala.collection.immutable.ArraySeq

/** Distributed SSS over a Spark `Dataset[Traj]` — the repro target's
  * dataflow shape: the shared top-K loop (`TopK.search`, optionally behind
  * Algorithm 3's GBP→KPF gate) runs inside `mapPartitions` over partitioned
  * trajectory data, so only `K × partitions` rows reach the Catalyst
  * `orderBy/limit` merge, which the tests check against DuckDB.
  */
object SparkSearch {

  /** Global top-K hits for query `q` under `fn`: each partition keeps a
    * local top-K of `searchOne` results (CMA by default) over the
    * trajectories the `params` gate lets through (all of them by default),
    * then the partition lists are merged by `(dist, trajId)`.
    */
  def topK(data: Dataset[Traj], q: Array[Point], fn: DistFn[Point], k: Int,
           params: Option[Pruner.Params] = None,
           searchOne: Option[(IndexedSeq[Point], IndexedSeq[Point]) => SubtrajResult] = None
          ): Array[TopK.Hit] = {
    import data.sparkSession.implicits._
    val search = searchOne.getOrElse((a: IndexedSeq[Point], b: IndexedSeq[Point]) => CMA.search(a, b, fn))
    val locals = data.mapPartitions { it =>
      val qs = ArraySeq.unsafeWrapArray(q)
      val pairs = it.map(t => (t.id, ArraySeq.unsafeWrapArray(t.points): IndexedSeq[Point])).toSeq
      val hits = params match {
        case Some(p) => TopK.search(qs, pairs, k, search, Pruner.gate(q, fn, p))
        case None    => TopK.search(qs, pairs, k, search)
      }
      hits.iterator
    }
    locals.orderBy(col("dist").asc, col("trajId").asc).limit(k).collect()
  }
}
