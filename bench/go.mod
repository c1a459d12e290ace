module dagger/bench

go 1.22

require dagger v0.0.0

replace dagger => ../
