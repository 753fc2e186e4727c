package repro

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.scalatest.funsuite.AnyFunSuite
import repro.core.TestGen
import repro.eval.Workloads

/** Self-test of the DuckDB oracle on trajectory tables: it accepts an
  * equivalent Spark result and flags a wrong one.
  */
class OracleSmokeSpec extends AnyFunSuite with SparkSpec {

  private lazy val trajs = Workloads.data(spark, TestGen.tiny).cache()

  /** One row per trajectory: its id and point count. */
  private lazy val lengths: DataFrame =
    trajs.select(col("id"), size(col("xs")).as("len"))

  /** One row per sample point: trajectory id, position and coordinates. */
  private lazy val points: DataFrame = {
    import spark.implicits._
    trajs.flatMap(t => t.xs.indices.map(i => (t.id, i, t.xs(i), t.ys(i))))
      .toDF("trajId", "idx", "x", "y")
  }

  test("oracle: trajectory points join/group-by aggregate") {
    val got = lengths.join(points, lengths("id") === points("trajId"))
      .groupBy(col("id"), col("len"))
      .agg(count(lit(1)).as("cnt"), max(col("x")).as("max_x"))
    Oracle.assertEquivalent(got,
      """SELECT CAST(id AS BIGINT) AS id, CAST(len AS INTEGER) AS len,
        |       count(*) AS cnt, max(CAST(x AS DOUBLE)) AS max_x
        |FROM lengths JOIN points ON CAST(id AS BIGINT) = CAST(trajId AS BIGINT)
        |GROUP BY 1, 2""".stripMargin,
      "lengths" -> lengths, "points" -> points)
  }

  test("oracle flags a wrong result") {
    val wrong = points.groupBy(col("trajId"))
      .agg((count(lit(1)) + 1).as("cnt")) // deliberately off by one
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong,
        "SELECT CAST(trajId AS BIGINT) AS trajId, count(*) AS cnt FROM points GROUP BY 1",
        "points" -> points)
    }
  }
}
