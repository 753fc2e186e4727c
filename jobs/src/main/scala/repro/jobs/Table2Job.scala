package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.eval.{Harness, Workloads}

/** spark-submit entrypoint reproducing Table 2 (effectiveness: AR/MR/RR of
  * all algorithms under DTW/EDR/ERP/FD on the Porto-like and Xi'an-like
  * workloads).
  */
object Table2Job {
  def main(args: Array[String]): Unit = {
    // spark-submit supplies spark.master; fall back to local[*] for runMain.
    val builder = SparkSession.builder()
      .appName("repro-table2")
    val spark = (if (sys.props.contains("spark.master")) builder
                 else builder.master(sys.env.getOrElse("SPARK_MASTER", "local[*]")))
      .getOrCreate()
    val rows = Harness.table2(spark, Seq(Workloads.porto, Workloads.xian))
    println("=== Table 2: Effectiveness of Algorithms ===")
    println(Harness.formatTable2(rows))
    spark.stop()
  }
}
