module dbs3/bench

go 1.24

require dbs3 v0.0.0

replace dbs3 => ../
